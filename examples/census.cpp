// census — IDs-Learning as a census / leader election (Algorithm 2).
//
// Eight anonymous-looking processes each learn every neighbor's identity
// and elect the minimum as leader, in one snap-stabilizing computation per
// process, starting from a corrupted configuration. This is the paper's
// IDL protocol doing what its ME layer uses it for.
//
// Build & run:  ./examples/census [--n 8] [--corrupt]
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/stack.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

using namespace snapstab;

int main(int argc, char** argv) {
  CliArgs args(argc, argv, {"n", "corrupt", "seed"});
  const int n = static_cast<int>(args.get_int("n", 8));
  const bool corrupt = args.get_bool("corrupt", true);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 4711));

  std::printf("IDs-Learning census over %d processes (%s start)\n\n", n,
              corrupt ? "corrupted" : "clean");

  // Scatter some identities (globally unique, not consecutive).
  std::vector<std::int64_t> ids;
  Rng id_rng(seed);
  for (int i = 0; i < n; ++i) ids.push_back(id_rng.range(100, 999) * 10 + i);

  sim::Simulator world(n, 1, seed);
  for (int i = 0; i < n; ++i)
    world.add_process(std::make_unique<core::IdlProcess>(
        ids[static_cast<std::size_t>(i)], n - 1, 1));
  if (corrupt) {
    Rng chaos(seed + 1);
    sim::fuzz(world, chaos);
  }
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 2));

  // Every process asks for a census. After a fault, a session first waits
  // for its process's ghost computation to finish.
  svc::Client client(world);
  std::vector<svc::Session> sessions;
  for (int p = 0; p < n; ++p) sessions.push_back(client.submit(p, svc::Idl{}));
  if (client.await_all(sessions, {.max_steps = 4'000'000}) !=
      svc::AwaitResult::Done) {
    std::printf("ERROR: the census did not terminate\n");
    return 1;
  }

  TextTable table({"process", "own id", "learned minimum", "leader?",
                   "neighbor table (by channel)"});
  std::int64_t true_min = ids[0];
  for (const auto id : ids) true_min = std::min(true_min, id);
  bool all_exact = true;
  for (int p = 0; p < n; ++p) {
    const auto& idl = world.process_as<core::IdlProcess>(p).idl();
    std::string tab;
    for (int ch = 0; ch < n - 1; ++ch) {
      if (ch > 0) tab += " ";
      tab += std::to_string(idl.id_tab(ch));
    }
    if (idl.min_id() != true_min) all_exact = false;
    table.add_row({TextTable::cell(p), TextTable::cell(idl.own_id()),
                   TextTable::cell(idl.min_id()),
                   idl.min_id() == idl.own_id() ? "LEADER" : "",
                   tab});
  }
  table.print();
  std::printf("\n%s — every process agrees the leader is %lld\n",
              all_exact ? "census exact" : "CENSUS WRONG",
              static_cast<long long>(true_min));
  return all_exact ? 0 : 1;
}
