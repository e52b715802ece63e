// termination_detection — watching a diffusing computation die out.
//
// A token game runs across the system: tokens hop to random neighbors and
// expire after a TTL. The termination-detection service (PIF probe waves,
// Safra-style double probe over sent/received counters) watches it and
// announces — correctly — the moment the game is over.
//
// Build & run:  ./examples/termination_detection [--n 4] [--tokens 10]
#include <cstdio>
#include <deque>
#include <memory>

#include "common/cli.hpp"
#include "core/stack.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

using namespace snapstab;

namespace {

struct TokenApp {
  std::deque<int> held;
  std::uint32_t sent = 0;
  std::uint32_t received = 0;
  std::uint32_t absorbed = 0;

  core::DiffusingApp hooks() {
    core::DiffusingApp app;
    app.counters = [this] {
      return core::AppCounters{held.empty(), sent, received};
    };
    app.has_work = [this] { return !held.empty(); };
    app.on_tick = [this](sim::Context& ctx) {
      if (held.empty()) return;
      const int ttl = held.front();
      if (ttl <= 0) {
        held.pop_front();
        ++absorbed;
        return;
      }
      const int ch = static_cast<int>(
          ctx.rng().below(static_cast<std::uint64_t>(ctx.degree())));
      if (ctx.send(ch, Message::app(Value::integer(ttl - 1)))) {
        held.pop_front();
        ++sent;
      }
    };
    app.on_message = [this](sim::Context&, int, const Value& v) {
      ++received;
      held.push_back(static_cast<int>(v.as_int(0)));
    };
    return app;
  }
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv, {"n", "tokens", "seed"});
  const int n = static_cast<int>(args.get_int("n", 4));
  const int tokens = static_cast<int>(args.get_int("tokens", 10));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 77));

  std::printf(
      "Termination detection: %d tokens hopping over %d processes, watched\n"
      "by snap-stabilizing PIF probe waves.\n\n",
      tokens, n);

  sim::Simulator world(n, 1, seed);
  std::vector<std::unique_ptr<TokenApp>> apps;
  for (int i = 0; i < n; ++i) {
    apps.push_back(std::make_unique<TokenApp>());
    world.add_process(
        std::make_unique<core::TermDetectProcess>(n - 1, 1,
                                                  apps.back()->hooks()));
  }
  Rng rng(seed + 1);
  for (int t = 0; t < tokens; ++t)
    apps[rng.below(static_cast<std::uint64_t>(n))]->held.push_back(
        3 + static_cast<int>(rng.below(10)));
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 2));

  svc::Client client(world);
  if (client.await_all({client.submit(0, svc::TermDetect{})},
                       {.max_steps = 8'000'000}) != svc::AwaitResult::Done) {
    std::printf("ERROR: detection did not finish\n");
    return 1;
  }

  const auto& detector =
      world.process_as<core::TermDetectProcess>(0).detector();
  std::printf("detector claimed termination after %d probe waves and %llu "
              "steps\n\n",
              detector.waves_used(),
              static_cast<unsigned long long>(world.step_count()));

  std::uint64_t hops = 0;
  std::uint64_t absorbed = 0;
  bool any_left = false;
  for (const auto& app : apps) {
    hops += app->sent;
    absorbed += app->absorbed;
    any_left = any_left || !app->held.empty();
  }
  std::printf("token hops      : %llu\n",
              static_cast<unsigned long long>(hops));
  std::printf("tokens absorbed : %llu\n",
              static_cast<unsigned long long>(absorbed));
  std::printf("tokens left     : %s\n", any_left ? "SOME (bug!)" : "none");
  std::printf("\n%s\n", any_left
                            ? "FALSE CLAIM — the detector lied."
                            : "The claim was sound: the game really was "
                              "over when the detector said so.");
  return any_left ? 1 : 0;
}
