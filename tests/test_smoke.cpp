// test_smoke.cpp — end-to-end smoke: every protocol completes one requested
// computation from a clean configuration and from a fuzzed one.
#include <gtest/gtest.h>

#include "core/specs.hpp"
#include "core/stack.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "test_util.hpp"

namespace snapstab {
namespace {

using core::MeStackProcess;
using core::PifProcess;
using sim::Simulator;

TEST(Smoke, PifCompletesFromCleanState) {
  Simulator sim(4, /*capacity=*/1, /*seed=*/7);
  for (int i = 0; i < 4; ++i)
    sim.add_process(std::make_unique<PifProcess>(3, 1));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(11));

  EXPECT_EQ(serve(sim, 0, svc::PifBroadcast{Value::text("hello")}, 200'000),
            svc::AwaitResult::Done);

  const auto report = core::check_pif_spec(sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Smoke, PifCompletesFromFuzzedState) {
  Simulator sim(3, 1, 21);
  for (int i = 0; i < 3; ++i)
    sim.add_process(std::make_unique<PifProcess>(2, 1));
  Rng rng(99);
  sim::fuzz(sim, rng);
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(13));

  EXPECT_EQ(
      serve(sim, 1, svc::PifBroadcast{Value::text("after-fault")}, 200'000),
      svc::AwaitResult::Done);
}

TEST(Smoke, MeServesARequest) {
  Simulator sim(3, 1, 5);
  for (int i = 0; i < 3; ++i)
    sim.add_process(std::make_unique<MeStackProcess>(100 + i, 2));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(17));

  EXPECT_EQ(serve(sim, 2, svc::CriticalSection{}, 500'000),
            svc::AwaitResult::Done);

  const auto report = core::check_me_spec(sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace snapstab
