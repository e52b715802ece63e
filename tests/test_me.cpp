// test_me.cpp — Protocol ME (Algorithm 3): Specification 3 / Theorem 4,
// one test per lemma, plus the mod-(n+1) regression (the first deviation
// listed in src/core/me.hpp).
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

std::unique_ptr<Simulator> me_world(const std::vector<std::int64_t>& ids,
                                    std::uint64_t seed,
                                    StackOptions options = {}) {
  const int n = static_cast<int>(ids.size());
  auto sim = std::make_unique<Simulator>(n, 1, seed);
  for (int i = 0; i < n; ++i)
    sim->add_process(std::make_unique<MeStackProcess>(
        ids[static_cast<std::size_t>(i)], n - 1, options));
  return sim;
}

Me& me_of(Simulator& sim, int p) {
  return sim.process_as<MeStackProcess>(p).me();
}

bool request_served(Simulator& s, int p) {
  return me_of(s, p).request_state() == RequestState::Done;
}

TEST(Me, SingleRequestIsServed) {
  // Lemma 12 (Start): a requesting process enters the CS in finite time.
  auto sim = me_world({30, 10, 20}, 1);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(2));
  ASSERT_EQ(serve(*sim, 0, svc::CriticalSection{}, 1'000'000),
            svc::AwaitResult::Done);
  const auto report = check_me_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Me, LeaderItselfCanRequest) {
  auto sim = me_world({10, 30, 20}, 3);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(4));
  // Process 0 holds the smallest id.
  ASSERT_EQ(serve(*sim, 0, svc::CriticalSection{}, 1'000'000),
            svc::AwaitResult::Done);
  EXPECT_TRUE(check_me_spec(*sim).ok());
}

TEST(Me, AllProcessesRequestingAreAllServedExclusively) {
  auto sim = me_world({5, 9, 2, 7}, 5);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(6));
  svc::Client client(*sim);
  std::vector<svc::Session> sessions;
  for (int p = 0; p < 4; ++p)
    sessions.push_back(client.submit(p, svc::CriticalSection{}));
  ASSERT_EQ(client.await_all(sessions, {.max_steps = 4'000'000}),
            svc::AwaitResult::Done);
  const auto report = check_me_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Every process entered the CS exactly once (one request each).
  int enters = 0;
  for (const auto& e : sim->log().events())
    if (e.layer == sim::Layer::Me && e.kind == sim::ObsKind::CsEnter &&
        e.value.as_int() == 1)
      ++enters;
  EXPECT_EQ(enters, 4);
}

TEST(Me, RequestWhileInServiceIsRejected) {
  auto sim = me_world({1, 2}, 7);
  // The paper's usage rule: no re-request until Done.
  ASSERT_TRUE(me_of(*sim, 0).request_cs());
  EXPECT_FALSE(me_of(*sim, 0).request_cs());
}

TEST(Me, FavourRotationVisitsEveryProcess) {
  // Lemma 11: Value_L is incremented (mod n) infinitely often, so the
  // favour token visits every process even when nobody requests.
  auto sim = me_world({100, 200, 300}, 9);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(10));
  std::set<int> favoured;
  for (int probe = 0; probe < 12; ++probe) {
    const int before = me_of(*sim, 0).value();
    sim->run(400'000, [before](Simulator& s) {
      return s.process_as<MeStackProcess>(0).me().value() != before;
    });
    favoured.insert(me_of(*sim, 0).value());
  }
  // Domain {0,1,2} fully visited.
  EXPECT_EQ(favoured, (std::set<int>{0, 1, 2}));
}

TEST(Me, ExitForcesEveryoneToPhaseZero) {
  // Lemma 7: before a winner enters the CS, every other process passed
  // through phase 0 (the EXIT broadcast resets them).
  auto sim = me_world({10, 20, 30}, 11);
  // Fuzz the two non-leaders to arbitrary mid-cycle phases.
  me_of(*sim, 1).mutable_state().phase = 3;
  me_of(*sim, 2).mutable_state().phase = 2;
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(12));
  svc::Client(*sim).submit(0, svc::CriticalSection{});
  ASSERT_EQ(sim->run(1'000'000,
                     [](Simulator& s) {
                       return s.process_as<MeStackProcess>(0).me().in_cs();
                     }),
            Simulator::StopReason::Predicate);
  // The EXIT broadcast was received by both peers before the CS entry.
  int exits_received = 0;
  for (const auto& e : sim->log().events())
    if (e.kind == sim::ObsKind::RecvBrd && e.value.is_token(Token::Exit))
      ++exits_received;
  EXPECT_GE(exits_received, 2);
}

TEST(Me, GhostWinnerCannotStealTheCs) {
  // A process fuzzed to believe it is the winner (phase 3, privileges set)
  // without any request: it may execute a ghost CS once, but a requesting
  // process is still served exclusively.
  auto sim = me_world({10, 20, 30}, 13);
  auto& ghost = me_of(*sim, 2);
  ghost.mutable_state().phase = 3;
  ghost.mutable_state().request = RequestState::In;  // ghost "request"
  ghost.mutable_state().privileges = {true, true};
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(14));
  ASSERT_EQ(serve(*sim, 1, svc::CriticalSection{}, 2'000'000),
            svc::AwaitResult::Done);
  const auto report = check_me_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Me, GhostInsideCsDelaysButDoesNotBreakExclusion) {
  // The footnote-1 adversary: a process starts *inside* a ghost CS. The
  // requesting process must wait it out (the ghost ignores messages while
  // busy) and then be served alone.
  StackOptions opts;
  opts.me.cs_length = 5;
  auto sim = me_world({10, 20}, 15, opts);
  auto& ghost = me_of(*sim, 1);
  ghost.mutable_state().cs_remaining = 5;  // mid-CS at time 0
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(16));
  ASSERT_EQ(serve(*sim, 0, svc::CriticalSection{}, 2'000'000),
            svc::AwaitResult::Done);
  const auto report = check_me_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Me, ServesRepeatedRequestsFairly) {
  // Repeated requests from everyone: each gets the CS again and again.
  auto sim = me_world({3, 1, 2}, 17);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(18));
  std::vector<int> grants(3, 0);
  svc::Client client(*sim);
  for (int p = 0; p < 3; ++p) client.submit(p, svc::CriticalSection{});
  for (int iteration = 0; iteration < 40; ++iteration) {
    sim->run(300'000, [](Simulator& s) {
      for (int p = 0; p < 3; ++p)
        if (request_served(s, p)) return true;
      return false;
    });
    for (int p = 0; p < 3; ++p) {
      if (request_served(*sim, p)) {
        ++grants[static_cast<std::size_t>(p)];
        client.submit(p, svc::CriticalSection{});  // request again at once
      }
    }
  }
  const auto report = check_me_spec(*sim, {.require_liveness = false});
  EXPECT_TRUE(report.ok()) << report.summary();
  for (int p = 0; p < 3; ++p)
    EXPECT_GE(grants[static_cast<std::size_t>(p)], 2) << "p" << p;
}

TEST(Me, WinnerPredicateMatchesPaperDefinition) {
  Pif pif(2, 1);
  Idl idl(10, 2, pif);
  Me me(10, 2, pif, idl, {});
  // Case 1: leader with Value = 0.
  idl.mutable_state().min_id = 10;
  me.mutable_state().value = 0;
  EXPECT_TRUE(me.winner());
  // Case 2: leader with Value != 0.
  me.mutable_state().value = 1;
  EXPECT_FALSE(me.winner());
  // Case 3: non-leader with a privilege from the leader.
  idl.mutable_state().min_id = 4;
  idl.mutable_state().id_tab = {4, 30};
  me.mutable_state().privileges = {true, false};
  EXPECT_TRUE(me.winner());
  // Case 4: privilege from a non-leader does not count.
  me.mutable_state().privileges = {false, true};
  EXPECT_FALSE(me.winner());
}

TEST(Me, PaperFaithfulIncrementDeadlocks) {
  // The first deviation of src/core/me.hpp: with A7's literal
  // `(Value+1) mod (n+1)`, Value_L = n favours nobody and the token never
  // advances again — requests starve.
  StackOptions faithful;
  faithful.me.paper_faithful_increment = true;
  auto sim = me_world({10, 20, 30}, 19, faithful);
  me_of(*sim, 0).mutable_state().value = 3;  // n = 3: the poison value
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(20));
  EXPECT_EQ(serve(*sim, 1, svc::CriticalSection{}, 400'000),
            svc::AwaitResult::BudgetExhausted);
  EXPECT_EQ(me_of(*sim, 0).value(), 3);  // frozen forever
}

TEST(Me, ModNFixSurvivesTheSamePoisonValue) {
  // With the mod-n fix the domain is {0..n-1}; even if fuzzing plants an
  // out-of-domain Value (possible only with the faithful flag off via
  // direct state surgery), A7 cannot be reached… instead plant n-1 and
  // verify rotation continues through 0.
  auto sim = me_world({10, 20, 30}, 21);
  me_of(*sim, 0).mutable_state().value = 2;  // last in-domain value
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(22));
  EXPECT_EQ(serve(*sim, 1, svc::CriticalSection{}, 2'000'000),
            svc::AwaitResult::Done);
}

TEST(Me, CsBodyRunsExactlyOncePerGrant) {
  StackOptions opts;
  int executions = 0;
  opts.me.cs_body = [&executions] { ++executions; };
  auto sim = me_world({10, 20}, 23, opts);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(24));
  ASSERT_EQ(serve(*sim, 1, svc::CriticalSection{}, 2'000'000),
            svc::AwaitResult::Done);
  // cs_body runs for the requested CS of p1; p0's (10) non-requesting wins
  // skip the CS entirely, so only ghost CS could add counts — none here
  // (clean start).
  EXPECT_EQ(executions, 1);
}

TEST(Me, BusyProcessBlocksDeliveries) {
  StackOptions opts;
  opts.me.cs_length = 50;
  auto sim = me_world({10, 20}, 25, opts);
  auto& stack = sim->process_as<MeStackProcess>(0);
  stack.me().mutable_state().cs_remaining = 50;
  EXPECT_TRUE(stack.busy());
  sim->network().channel(1, 0).push(Message::pif(
      Value::token(Token::Ask), Value::none(), 3, 0));
  // The random scheduler must not pick the delivery; run a while and check
  // the message is still pending.
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(26));
  sim->run(40);
  EXPECT_EQ(sim->network().channel(1, 0).size(), 1u);
}

class MeProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, double>> {
};

TEST_P(MeProperty, Specification3FromArbitraryConfigurations) {
  const auto [n, seed, loss] = GetParam();
  std::vector<std::int64_t> ids;
  for (int i = 0; i < n; ++i) ids.push_back((i * 37) % 101 + 1);

  auto sim = me_world(ids, seed);
  Rng rng(seed ^ 0xCAFE);
  sim::fuzz(*sim, rng);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      seed + 1, sim::LossOptions{.rate = loss, .max_consecutive = 5}));

  // A ghost computation may hold a process's ME layer initially; its
  // session then waits in the queue until the ghost drains.
  svc::Client client(*sim);
  std::vector<svc::Session> sessions;
  for (int p = 0; p < n; ++p)
    sessions.push_back(client.submit(p, svc::CriticalSection{}));
  ASSERT_EQ(client.await_all(sessions, {.max_steps = 6'000'000}),
            svc::AwaitResult::Done);

  const auto report = check_me_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MeProperty,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(101ull, 102ull, 103ull),
                       ::testing::Values(0.0, 0.15)));

}  // namespace
}  // namespace snapstab::core
