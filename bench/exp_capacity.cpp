// exp_capacity — Experiment E7: the capacity-c generalization.
//
// The paper calls the extension to a known bound c straightforward; this
// experiment quantifies it. Flag range {0..2c+2}; validation = fuzzed
// Specification-1 checks per capacity; cost = rounds and messages for one
// computation (the handshake deepens linearly in c). Also reproduces the
// *mismatch* failure: a protocol believing c' < c channels can be fooled.
#include "exp_common.hpp"
#include "load/shard.hpp"

namespace snapstab::bench {
namespace {

using core::PifProcess;
using sim::Simulator;

struct Cell {
  int runs = 0;
  int violations = 0;
  Summary rounds;
  Summary sends;
};

Cell run_cell(int c, int n, int trials, std::uint64_t seed0, int threads) {
  // One independent seeded trial per index; workers run them in parallel
  // (one Simulator + StringPool each), results fold in trial order below.
  struct Trial {
    bool completed = false;
    bool violation = false;
    double rounds = 0;
    double sends = 0;
  };
  const auto outcomes = load::parallel_shards(trials, threads, [&](int t) {
    Trial out;
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    auto world = pif_world(n, c, seed);
    Rng rng(seed * 7);
    sim::FuzzOptions fuzz_opts;
    fuzz_opts.flag_limit = 2 * c + 2;
    sim::fuzz(*world, rng, fuzz_opts);
    world->set_scheduler(std::make_unique<sim::RoundRobinScheduler>(seed));
    if (!broadcast(*world, 0, Value::integer(t), 5'000'000)) {
      out.violation = true;
      return out;
    }
    out.completed = true;
    out.rounds = static_cast<double>(rounds_of(*world));
    out.sends = static_cast<double>(world->metrics().sends);
    const auto report = core::check_pif_spec(
        *world, {.require_termination = false, .require_start = false});
    if (!report.ok()) out.violation = true;
    return out;
  });

  Cell cell;
  for (const auto& out : outcomes) {
    ++cell.runs;
    if (out.violation) ++cell.violations;
    if (!out.completed) continue;
    cell.rounds.add(out.rounds);
    cell.sends.add(out.sends);
  }
  return cell;
}

// The mismatch attack of test_capacity, parameterized: channels hold `real`
// messages, the protocol believes `believed`. Returns true when the ghost
// decision happened.
bool mismatch_attack(int believed, int real) {
  Simulator world(2, static_cast<std::size_t>(real), 1);
  world.add_process(std::make_unique<PifProcess>(1, believed));
  world.add_process(std::make_unique<PifProcess>(1, believed));
  const int flag_bound = 2 * believed + 2;
  for (std::int32_t flag = 0; flag < flag_bound && flag < real; ++flag)
    world.network().channel(1, 0).push(
        Message::pif(Value::text("stale"), Value::text("stale"), 0, flag));
  svc::Client(world).submit(0, svc::PifBroadcast{Value::text("real")});
  world.execute(sim::Step::tick(0));
  for (int i = 0; i < real; ++i) world.execute(sim::Step::deliver(1, 0));
  world.execute(sim::Step::tick(0));
  return world.process_as<PifProcess>(0).pif().done();
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"trials", "seed", "threads", "json"});
  const int trials = static_cast<int>(args.get_int("trials", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7000));
  const int threads = trial_thread_count(args, trials);

  banner("E7: exp_capacity",
         "§4 remark: extension to known capacity c (straightforward)",
         "Validation and cost of the capacity-parametric Protocol PIF, and\n"
         "what happens when the believed bound is wrong.");

  std::printf("--- Matching bound: validation and cost ---\n");
  TextTable table({"capacity c", "flag range", "n", "runs", "violations",
                   "rounds (mean)", "msgs (mean)"});
  int total_violations = 0;
  for (int c : {1, 2, 4, 8}) {
    for (int n : {2, 8}) {
      const auto cell =
          run_cell(c, n, trials,
                   seed + static_cast<std::uint64_t>(c * 100 + n), threads);
      total_violations += cell.violations;
      char range[24];
      std::snprintf(range, sizeof range, "{0..%d}", 2 * c + 2);
      table.add_row({TextTable::cell(c), range, TextTable::cell(n),
                     TextTable::cell(cell.runs),
                     TextTable::cell(cell.violations),
                     TextTable::cell(cell.rounds.mean(), 1),
                     TextTable::cell(cell.sends.mean(), 0)});
    }
  }
  table.print();

  std::printf("\n--- Mismatched bound: the attack of Theorem 1's boundary ---\n");
  TextTable attack({"believed c'", "real capacity", "ghost decision?"});
  bool under_fooled = false;
  bool exact_safe = true;
  for (int believed : {1, 2}) {
    for (int real : {1, 2, 4, 8}) {
      const bool fooled = mismatch_attack(believed, real);
      if (real > 2 * believed + 1 && fooled) under_fooled = true;
      if (real <= believed && fooled) exact_safe = false;
      attack.add_row({TextTable::cell(believed), TextTable::cell(real),
                      fooled ? "YES" : "no"});
    }
  }
  attack.print();

  verdict(total_violations == 0,
          "Specification 1 held for every capacity with a matching bound");
  verdict(under_fooled,
          "underestimating the capacity admits ghost decisions (the bound "
          "must be known, exactly as Theorem 1 requires)");
  verdict(exact_safe, "a correct bound was never fooled");

  BenchJson json("exp_capacity");
  json.set("trials", trials);
  json.set("threads", threads);
  json.set("total_violations", total_violations);
  json.set("under_fooled", under_fooled);
  json.set("exact_safe", exact_safe);
  return exit_code(json.write_if_requested(args));
}
