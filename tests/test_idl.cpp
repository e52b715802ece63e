// test_idl.cpp — Protocol IDL (Algorithm 2): Specification 2 / Theorem 3.
#include <gtest/gtest.h>

#include <memory>

#include "core/specs.hpp"
#include "core/stack.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "test_util.hpp"

namespace snapstab::core {
namespace {

using sim::Simulator;

std::unique_ptr<Simulator> idl_world(const std::vector<std::int64_t>& ids,
                                     std::uint64_t seed) {
  const int n = static_cast<int>(ids.size());
  auto sim = std::make_unique<Simulator>(n, 1, seed);
  for (int i = 0; i < n; ++i)
    sim->add_process(std::make_unique<IdlProcess>(
        ids[static_cast<std::size_t>(i)], n - 1, 1));
  return sim;
}

SpecReport check(Simulator& sim, const std::vector<std::int64_t>& ids) {
  return check_idl_spec(
      sim,
      [&sim](sim::ProcessId p) -> const Idl& {
        return sim.process_as<IdlProcess>(p).idl();
      },
      ids);
}

TEST(Idl, LearnsIdsFromCleanState) {
  const std::vector<std::int64_t> ids = {42, 17, 88, 5};
  auto sim = idl_world(ids, 1);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(2));
  ASSERT_EQ(serve(*sim, 0, svc::Idl{}, 400'000), svc::AwaitResult::Done);
  const Idl& idl = sim->process_as<IdlProcess>(0).idl();
  EXPECT_EQ(idl.min_id(), 5);
  // Channel k of process 0 is process k+1.
  EXPECT_EQ(idl.id_tab(0), 17);
  EXPECT_EQ(idl.id_tab(1), 88);
  EXPECT_EQ(idl.id_tab(2), 5);
  EXPECT_TRUE(check(*sim, ids).ok());
}

TEST(Idl, MinIncludesOwnId) {
  // The initiator's own identity participates in the minimum.
  const std::vector<std::int64_t> ids = {3, 17, 88};
  auto sim = idl_world(ids, 3);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(4));
  ASSERT_EQ(serve(*sim, 0, svc::Idl{}, 400'000), svc::AwaitResult::Done);
  EXPECT_EQ(sim->process_as<IdlProcess>(0).idl().min_id(), 3);
}

TEST(Idl, NegativeIdsSupported) {
  const std::vector<std::int64_t> ids = {-7, 0, 12};
  auto sim = idl_world(ids, 5);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(6));
  ASSERT_EQ(serve(*sim, 2, svc::Idl{}, 400'000), svc::AwaitResult::Done);
  EXPECT_EQ(sim->process_as<IdlProcess>(2).idl().min_id(), -7);
  EXPECT_TRUE(check(*sim, ids).ok());
}

class IdlProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, double>> {
};

TEST_P(IdlProperty, Specification2FromArbitraryConfigurations) {
  const auto [n, seed, loss] = GetParam();
  std::vector<std::int64_t> ids;
  Rng id_rng(seed * 7919);
  for (int i = 0; i < n; ++i)
    ids.push_back(id_rng.range(-500, 500) * 10 + i);  // unique by last digit

  auto sim = idl_world(ids, seed);
  Rng rng(seed ^ 0xBEEF);
  sim::fuzz(*sim, rng);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      seed + 1, sim::LossOptions{.rate = loss, .max_consecutive = 5}));

  // Every process runs a requested computation; a session waits behind its
  // host's ghost computation.
  svc::Client client(*sim);
  std::vector<svc::Session> sessions;
  for (int p = 0; p < n; ++p) sessions.push_back(client.submit(p, svc::Idl{}));
  ASSERT_EQ(client.await_all(sessions, {.max_steps = 1'500'000}),
            svc::AwaitResult::Done);
  const auto report = check(*sim, ids);
  EXPECT_TRUE(report.ok()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IdlProperty,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(11ull, 12ull, 13ull),
                       ::testing::Values(0.0, 0.2)));

TEST(Idl, GhostComputationCarriesNoGuaranteeButTerminates) {
  // A non-started computation (Request fuzzed to In) may terminate with
  // garbage results; it must terminate nonetheless (Termination property).
  const std::vector<std::int64_t> ids = {9, 4};
  auto sim = idl_world(ids, 31);
  auto& idl0 = sim->process_as<IdlProcess>(0).idl();
  idl0.mutable_state().request = RequestState::In;
  idl0.mutable_state().min_id = -12345;  // garbage accumulator
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(32));
  const auto reason = sim->run(300'000, [](Simulator& s) {
    return s.process_as<IdlProcess>(0).idl().done();
  });
  EXPECT_EQ(reason, Simulator::StopReason::Predicate);
}

TEST(Idl, RepeatedComputationsRefreshResults) {
  // A second requested computation overwrites any stale table (used by ME,
  // which re-runs IDL every cycle).
  const std::vector<std::int64_t> ids = {50, 60};
  auto sim = idl_world(ids, 33);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(34));
  for (int round = 0; round < 3; ++round) {
    // Poison the table between computations.
    auto& idl = sim->process_as<IdlProcess>(0).idl();
    idl.mutable_state().min_id = 999;
    idl.mutable_state().id_tab[0] = 777;
    ASSERT_EQ(serve(*sim, 0, svc::Idl{}, 300'000), svc::AwaitResult::Done);
    EXPECT_EQ(idl.min_id(), 50);
    EXPECT_EQ(idl.id_tab(0), 60);
  }
}

TEST(Idl, GhostFeedbackInTheStartWindowCannotPoisonMinId) {
  // Regression for a subtle composition hazard (the tick order of
  // ServiceHost::on_tick, src/svc/host.cpp): IDL's A1 sets
  // PIF.Request := Wait; if PIF's A1 (the flag reset) ran only on a *later*
  // activation, a delivery in between could match the FUZZED flags,
  // fire a ghost receive-fck, and A4 would fold its garbage value into the
  // monotone minID. The stack must start the sub-protocol within the same
  // atomic activation, so the adversarial message below must find the flags
  // already reset (no match, no ghost fck).
  const std::vector<std::int64_t> ids = {100, 200};
  auto sim = idl_world(ids, 71);
  auto& proc = sim->process_as<IdlProcess>(0);
  // Corrupted PIF state: the handshake with the neighbor looks one step
  // from completion (flag 3), and a matching echo is already in flight
  // carrying a tiny garbage feedback value.
  proc.pif().mutable_state().state[0] = 3;
  sim->network().channel(1, 0).push(
      Message::pif(Value::none(), Value::integer(-999), 0, 3));

  svc::Client(*sim).submit(0, svc::Idl{});
  sim->execute(sim::Step::tick(0));      // IDL A1 + PIF A1 atomically
  sim->execute(sim::Step::deliver(1, 0));  // the adversarial echo arrives
  EXPECT_EQ(proc.idl().min_id(), 100) << "ghost feedback poisoned minID";

  // And the computation still completes with the exact results.
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(72));
  ASSERT_EQ(sim->run(300'000,
                     [](sim::Simulator& s) {
                       return s.process_as<IdlProcess>(0).idl().done();
                     }),
            sim::Simulator::StopReason::Predicate);
  EXPECT_EQ(proc.idl().min_id(), 100);
  EXPECT_EQ(proc.idl().id_tab(0), 200);
}

TEST(Idl, FeedbackWithGarbagePayloadTolerated) {
  // During a ghost computation the feedback slot may hold any Value; A4 must
  // fold it in without crashing (total handlers).
  Pif pif(1, 1);
  Idl idl(7, 1, pif);
  struct NullBackend final : sim::ContextBackend {
    Rng rng_{1};
    int degree() const override { return 1; }
    bool send(int, const Message&) override { return true; }
    void observe(sim::Layer, sim::ObsKind, int, const Value&) override {}
    Rng& rng() override { return rng_; }
    std::uint64_t now() const override { return 0; }
  } backend;
  sim::Context ctx(backend);
  idl.on_fck(ctx, 0, Value::text("garbage"));
  EXPECT_EQ(idl.id_tab(0), 0);  // fallback id
  idl.on_fck(ctx, 0, Value::token(Token::Exit));
  EXPECT_EQ(idl.min_id(), 0);  // min folded the fallback, still no crash
}

}  // namespace
}  // namespace snapstab::core
