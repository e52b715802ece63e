// test_pif_property.cpp — parameterized property sweeps for Protocol PIF.
//
// Each parameter point fuzzes an arbitrary initial configuration, runs a
// full execution under a seeded adversary (scheduler + loss) and checks the
// whole of Specification 1. This is the empirical form of Theorem 2.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/specs.hpp"
#include "core/stack.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

namespace snapstab::core {
namespace {

using sim::Simulator;

// (process count, seed, loss rate, corrupted initial configuration?)
using Param = std::tuple<int, std::uint64_t, double, bool>;

class PifProperty : public ::testing::TestWithParam<Param> {};

TEST_P(PifProperty, StartedComputationSatisfiesSpecification1) {
  const auto [n, seed, loss, corrupted] = GetParam();

  Simulator sim(n, 1, seed);
  for (int i = 0; i < n; ++i)
    sim.add_process(std::make_unique<PifProcess>(n - 1, 1));
  if (corrupted) {
    Rng rng(seed ^ 0xF00Dull);
    sim::fuzz(sim, rng);
  }
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(
      seed + 1, sim::LossOptions{.rate = loss, .max_consecutive = 6}));

  // Several initiators, overlapping computations: the protocol must cope
  // with concurrent PIFs (every process can be an initiator).
  svc::Client client(sim);
  std::vector<svc::Session> sessions = {
      client.submit(0, svc::PifBroadcast{Value::text("alpha")})};
  if (n > 2)
    sessions.push_back(
        client.submit(n - 1, svc::PifBroadcast{Value::text("omega")}));
  // The requested computations first (from a corrupted state each may wait
  // behind a ghost), then every ghost computation, so Termination can be
  // checked for all of them.
  ASSERT_EQ(client.await_all(sessions, {.max_steps = 800'000}),
            svc::AwaitResult::Done);
  const auto reason = sim.run(800'000, [n](Simulator& s) {
    for (int p = 0; p < n; ++p)
      if (!s.process_as<PifProcess>(p).pif().done()) return false;
    return true;
  });
  ASSERT_NE(reason, Simulator::StopReason::BudgetExhausted);

  const auto report = check_pif_spec(
      sim, {.require_termination = true, .require_start = true});
  EXPECT_TRUE(report.ok()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PifProperty,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(1ull, 2ull, 3ull),
                       ::testing::Values(0.0, 0.15, 0.35),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& info) {
      char buf[96];
      std::snprintf(
          buf, sizeof buf, "n%d_seed%llu_loss%d_%s", std::get<0>(info.param),
          static_cast<unsigned long long>(std::get<1>(info.param)),
          static_cast<int>(std::get<2>(info.param) * 100),
          std::get<3>(info.param) ? "corrupted" : "clean");
      return std::string(buf);
    });

// All-initiators stress: every process broadcasts at once, repeatedly.
class PifAllInitiators : public ::testing::TestWithParam<int> {};

TEST_P(PifAllInitiators, ConcurrentComputationsAllComplete) {
  const int n = GetParam();
  Simulator sim(n, 1, static_cast<std::uint64_t>(n));
  for (int i = 0; i < n; ++i)
    sim.add_process(std::make_unique<PifProcess>(n - 1, 1));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(42));

  svc::Client client(sim);
  for (int round = 0; round < 3; ++round) {
    std::vector<svc::Session> sessions;
    for (int p = 0; p < n; ++p)
      sessions.push_back(client.submit(
          p, svc::PifBroadcast{Value::integer(round * 100 + p)}));
    ASSERT_EQ(client.await_all(sessions, {.max_steps = 2'000'000}),
              svc::AwaitResult::Done)
        << "round " << round;
  }
  const auto report = check_pif_spec(sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Sweep, PifAllInitiators,
                         ::testing::Values(2, 3, 4, 6));

}  // namespace
}  // namespace snapstab::core
