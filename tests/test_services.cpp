// test_services.cpp — the PIF-based services of §4.1's motivation list:
// global reset and leader election / consistent ranking.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/stack.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "test_util.hpp"

namespace snapstab::core {
namespace {

using sim::Simulator;

TEST(Reset, RunsTheHookEverywhereExactlyOnce) {
  const int n = 4;
  Simulator sim(n, 1, 1);
  std::vector<int> hook_runs(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    auto* counter = &hook_runs[static_cast<std::size_t>(i)];
    sim.add_process(std::make_unique<ResetProcess>(
        n - 1, 1, [counter](sim::Context&) { ++*counter; }));
  }
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(2));
  ASSERT_EQ(serve(sim, 0, svc::Reset{}, 400'000), svc::AwaitResult::Done);
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(hook_runs[static_cast<std::size_t>(i)], 1) << "p" << i;
}

TEST(Reset, FlushesInitiatorChannels) {
  // The reason a reset wants to ride on PIF: Property 1 guarantees the
  // initiator's channels hold no pre-reset message at the decision.
  Simulator sim(3, 1, 3);
  for (int i = 0; i < 3; ++i)
    sim.add_process(std::make_unique<ResetProcess>(2, 1));
  const Value marker = Value::text("pre-reset");
  sim.network().channel(1, 0).push(Message::pif(marker, marker, 1, 2));
  sim.network().channel(0, 2).push(Message::pif(marker, marker, 0, 3));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(4));
  ASSERT_EQ(serve(sim, 0, svc::Reset{}, 400'000), svc::AwaitResult::Done);
  for (int other : {1, 2}) {
    for (const auto& m : sim.network().channel(other, 0).contents())
      EXPECT_NE(m.b, marker);
    for (const auto& m : sim.network().channel(0, other).contents())
      EXPECT_NE(m.b, marker);
  }
}

TEST(Reset, WorksFromFuzzedConfigurations) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Simulator sim(3, 1, seed);
    std::vector<int> hook_runs(3, 0);
    for (int i = 0; i < 3; ++i) {
      auto* counter = &hook_runs[static_cast<std::size_t>(i)];
      sim.add_process(std::make_unique<ResetProcess>(
          2, 1, [counter](sim::Context&) { ++*counter; }));
    }
    Rng rng(seed * 99);
    sim::fuzz(sim, rng);
    sim.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
    ASSERT_EQ(serve(sim, 1, svc::Reset{}, 400'000), svc::AwaitResult::Done)
        << "seed=" << seed;
    for (int i = 0; i < 3; ++i)
      EXPECT_GE(hook_runs[static_cast<std::size_t>(i)], 1)
          << "seed=" << seed << " p" << i;
  }
}

TEST(Reset, GhostResetOrdersAreHarmlessButExecuted) {
  // A RESET broadcast sitting in a channel from the initial configuration
  // triggers the hook (the service cannot tell it from a genuine one — and
  // running a reset twice must be acceptable to the application anyway).
  Simulator sim(2, 1, 7);
  int hook_runs = 0;
  sim.add_process(std::make_unique<ResetProcess>(1, 1));
  sim.add_process(std::make_unique<ResetProcess>(
      1, 1, [&hook_runs](sim::Context&) { ++hook_runs; }));
  // Ghost broadcast with the brd-firing flag (3 = flag_bound - 1).
  sim.network().channel(0, 1).push(Message::pif(
      Value::token(Token::Reset), Value::none(), 3, 0));
  sim.execute(sim::Step::deliver(0, 1));
  EXPECT_EQ(hook_runs, 1);
}

TEST(Snapshot, CollectsEveryLocalState) {
  const int n = 4;
  Simulator sim(n, 1, 41);
  std::vector<std::int64_t> app_state = {100, 200, 300, 400};
  for (int i = 0; i < n; ++i) {
    auto* cell = &app_state[static_cast<std::size_t>(i)];
    sim.add_process(std::make_unique<SnapshotProcess>(
        n - 1, 1, [cell] { return Value::integer(*cell); }));
  }
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(42));
  ASSERT_EQ(serve(sim, 0, svc::Snapshot{}, 400'000), svc::AwaitResult::Done);
  const auto& snap = sim.process_as<SnapshotProcess>(0).snapshot();
  EXPECT_EQ(snap.own_state(), Value::integer(100));
  // Channel k of process 0 is process k+1.
  EXPECT_EQ(snap.collected()[0], Value::integer(200));
  EXPECT_EQ(snap.collected()[1], Value::integer(300));
  EXPECT_EQ(snap.collected()[2], Value::integer(400));
}

TEST(Snapshot, StateReadAfterQueryArrival) {
  // The collected value is the state at query-processing time, not the
  // initial state: bump the state when the query lands.
  Simulator sim(2, 1, 43);
  std::int64_t state = 7;
  sim.add_process(std::make_unique<SnapshotProcess>(
      1, 1, [] { return Value::integer(0); }));
  sim.add_process(std::make_unique<SnapshotProcess>(1, 1, [&state] {
    return Value::integer(state++);  // changes at every read
  }));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(44));
  ASSERT_EQ(serve(sim, 0, svc::Snapshot{}, 200'000), svc::AwaitResult::Done);
  // Exactly one genuine read happened at the peer for this computation.
  EXPECT_EQ(sim.process_as<SnapshotProcess>(0).snapshot().collected()[0],
            Value::integer(7));
}

TEST(Snapshot, WorksFromFuzzedConfigurations) {
  for (std::uint64_t seed = 61; seed <= 72; ++seed) {
    const int n = 3;
    Simulator sim(n, 1, seed);
    for (int i = 0; i < n; ++i)
      sim.add_process(std::make_unique<SnapshotProcess>(
          n - 1, 1, [i] { return Value::integer(1000 + i); }));
    Rng rng(seed * 101);
    sim::fuzz(sim, rng);
    sim.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
    ASSERT_EQ(serve(sim, 2, svc::Snapshot{}, 400'000), svc::AwaitResult::Done)
        << "seed=" << seed;
    const auto& snap = sim.process_as<SnapshotProcess>(2).snapshot();
    // peer_of(2, 0) = 0, peer_of(2, 1) = 1 for n = 3.
    EXPECT_EQ(snap.collected()[0], Value::integer(1000)) << "seed=" << seed;
    EXPECT_EQ(snap.collected()[1], Value::integer(1001)) << "seed=" << seed;
    EXPECT_EQ(snap.own_state(), Value::integer(1002)) << "seed=" << seed;
  }
}

// Submits an election at every process and runs until all of them complete.
svc::AwaitResult elect_all(Simulator& sim, std::uint64_t max_steps) {
  svc::Client client(sim);
  std::vector<svc::Session> sessions;
  for (int p = 0; p < sim.process_count(); ++p)
    sessions.push_back(client.submit(p, svc::Election{}));
  return client.await_all(sessions, {.max_steps = max_steps});
}

std::unique_ptr<Simulator> election_world(
    const std::vector<std::int64_t>& ids, std::uint64_t seed) {
  const int n = static_cast<int>(ids.size());
  auto sim = std::make_unique<Simulator>(n, 1, seed);
  for (int i = 0; i < n; ++i)
    sim->add_process(std::make_unique<ElectionProcess>(
        ids[static_cast<std::size_t>(i)], n - 1, 1));
  return sim;
}

TEST(Election, AllAgreeOnLeaderAndRanking) {
  const std::vector<std::int64_t> ids = {40, 10, 30, 20};
  auto sim = election_world(ids, 1);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(2));
  ASSERT_EQ(elect_all(*sim, 800'000), svc::AwaitResult::Done);

  const std::vector<std::int64_t> sorted = {10, 20, 30, 40};
  std::set<int> ranks;
  int leaders = 0;
  for (int p = 0; p < 4; ++p) {
    auto& election = sim->process_as<ElectionProcess>(p).election();
    EXPECT_EQ(election.leader(), 10);
    EXPECT_EQ(election.members(), sorted);
    ranks.insert(election.rank());
    if (election.is_leader()) ++leaders;
  }
  EXPECT_EQ(ranks, (std::set<int>{0, 1, 2, 3}));  // a true permutation
  EXPECT_EQ(leaders, 1);
  // Rank 0 belongs to the leader.
  EXPECT_EQ(sim->process_as<ElectionProcess>(1).election().rank(), 0);
}

class ElectionProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ElectionProperty, ConsistentFromArbitraryConfigurations) {
  const auto [n, seed] = GetParam();
  std::vector<std::int64_t> ids;
  Rng id_rng(seed * 31);
  for (int i = 0; i < n; ++i) ids.push_back(id_rng.range(0, 5000) * 50 + i);

  auto sim = election_world(ids, seed);
  Rng rng(seed ^ 0xE1EC);
  sim::fuzz(*sim, rng);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
  ASSERT_EQ(elect_all(*sim, 2'000'000), svc::AwaitResult::Done);

  std::int64_t expected_leader = ids[0];
  for (const auto id : ids) expected_leader = std::min(expected_leader, id);
  std::set<int> ranks;
  for (int p = 0; p < n; ++p) {
    auto& election = sim->process_as<ElectionProcess>(p).election();
    EXPECT_EQ(election.leader(), expected_leader);
    ranks.insert(election.rank());
  }
  EXPECT_EQ(static_cast<int>(ranks.size()), n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ElectionProperty,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8),
                                            ::testing::Values(5ull, 6ull)));

}  // namespace
}  // namespace snapstab::core
