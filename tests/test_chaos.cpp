// test_chaos.cpp — sustained transient-fault campaigns.
//
// Snap-stabilization, exercised as a process over time: the adversary
// strikes (scrambles states, refills channels with garbage), the
// application requests, the request must be served correctly — round after
// round after round, for every protocol in the repository. Also covers the
// timeline renderer and the adversary itself.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>

#include "core/specs.hpp"
#include "core/stack.hpp"
#include "sim/adversary.hpp"
#include "sim/simulator.hpp"
#include "sim/timeline.hpp"
#include "svc/client.hpp"
#include "test_util.hpp"

namespace snapstab {
namespace {

using core::IdlProcess;
using core::MeStackProcess;
using core::PifProcess;
using sim::Simulator;

// The chaos soak: SNAPSTAB_CHAOS_EXTRA_SEEDS=<k> appends k extra seeds
// after `base` to a campaign's seed list (the CI Release job sets 32).
std::vector<std::uint64_t> campaign_seeds(std::vector<std::uint64_t> base) {
  if (const char* extra = std::getenv("SNAPSTAB_CHAOS_EXTRA_SEEDS")) {
    const long k = std::strtol(extra, nullptr, 10);
    const std::uint64_t from = base.back();
    for (long i = 1; i <= k; ++i)
      base.push_back(from + static_cast<std::uint64_t>(i));
  }
  return base;
}

TEST(Adversary, StrikeHitsRoughlyTheConfiguredFraction) {
  Simulator sim(8, 1, 1);
  for (int i = 0; i < 8; ++i)
    sim.add_process(std::make_unique<PifProcess>(7, 1));
  sim::Adversary adversary(3, {.process_probability = 0.5,
                               .channel_probability = 0.25});
  int processes = 0;
  int channels = 0;
  const int strikes = 200;
  for (int s = 0; s < strikes; ++s) {
    const auto report = adversary.strike(sim);
    processes += report.processes_hit;
    channels += report.channels_hit;
  }
  EXPECT_EQ(adversary.strikes(), static_cast<std::uint64_t>(strikes));
  EXPECT_NEAR(static_cast<double>(processes) / (strikes * 8), 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(channels) / (strikes * 56), 0.25, 0.05);
}

TEST(Adversary, StrikeReportNamesEveryVictim) {
  Simulator sim(6, 1, 4);
  for (int i = 0; i < 6; ++i)
    sim.add_process(std::make_unique<PifProcess>(5, 1));
  sim::Adversary adversary(9, {.process_probability = 0.5,
                               .channel_probability = 0.5});
  const auto report = adversary.strike(sim);
  // The id lists ARE the counts: same cardinality, valid, strictly
  // ascending (the strike scans ids in order).
  ASSERT_EQ(static_cast<int>(report.processes.size()), report.processes_hit);
  ASSERT_EQ(static_cast<int>(report.channels.size()), report.channels_hit);
  for (std::size_t i = 0; i < report.processes.size(); ++i) {
    EXPECT_GE(report.processes[i], 0);
    EXPECT_LT(report.processes[i], 6);
    if (i > 0) EXPECT_LT(report.processes[i - 1], report.processes[i]);
  }
  for (std::size_t i = 0; i < report.channels.size(); ++i) {
    EXPECT_GE(report.channels[i], 0);
    EXPECT_LT(report.channels[i], sim.network().edge_count());
    if (i > 0) EXPECT_LT(report.channels[i - 1], report.channels[i]);
  }
  const std::string s = report.summary();
  EXPECT_NE(s.find("struck processes=["), std::string::npos) << s;
  EXPECT_NE(s.find("channels=["), std::string::npos) << s;
}

TEST(Adversary, RespectsChannelCapacity) {
  Simulator sim(3, 2, 1);
  for (int i = 0; i < 3; ++i)
    sim.add_process(std::make_unique<PifProcess>(2, 2));
  sim::Adversary adversary(5, {.channel_probability = 1.0, .flag_limit = 6});
  adversary.strike(sim);
  for (int s = 0; s < 3; ++s)
    for (int d = 0; d < 3; ++d)
      if (s != d) {
        EXPECT_LE(sim.network().channel(s, d).size(), 2u);
      }
}

class PifChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PifChaos, EveryPostStrikeRequestServedCorrectly) {
  const std::uint64_t seed = GetParam();
  const int n = 4;
  Simulator sim(n, 1, seed);
  for (int i = 0; i < n; ++i)
    sim.add_process(std::make_unique<PifProcess>(n - 1, 1));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
  sim::Adversary adversary(seed + 2);

  for (int round = 0; round < 15; ++round) {
    const auto report = adversary.strike(sim);
    const Value payload = Value::integer(9'000'000 + round);
    const std::size_t log_mark = sim.log().events().size();
    ASSERT_EQ(serve(sim, round % n, svc::PifBroadcast{payload}, 500'000),
              svc::AwaitResult::Done)
        << "seed " << seed << " round " << round << " did not terminate; "
        << report.summary();
    // The post-strike request reached every peer. At least n-1 receive-brd
    // events: the paper explicitly permits *additional* unexpected events
    // ("our protocol does not prevent processes to generate unexpected
    // receive-brd or receive-fck events", §4.1) — and the chaos campaign
    // actually produces them: between request() and the start action A1,
    // still-corrupted flags can leak an echo carrying the new payload.
    std::set<sim::ProcessId> reached;
    const auto& events = sim.log().events();
    for (std::size_t i = log_mark; i < events.size(); ++i)
      if (events[i].kind == sim::ObsKind::RecvBrd &&
          events[i].value == payload)
        reached.insert(events[i].process);
    EXPECT_EQ(static_cast<int>(reached.size()), n - 1)
        << "seed " << seed << " round " << round << "; " << report.summary();

    // Channel conservation after every strike/serve cycle: everything the
    // channels accepted was delivered, adversary-dropped, cleared by a
    // strike, or is still in flight — drop-vs-deliver interleavings and
    // clear() bursts must never lose count.
    const auto stats = sim.network().aggregate_channel_stats();
    ASSERT_EQ(stats.pushed,
              stats.popped + stats.dropped + stats.cleared +
                  sim.network().total_messages_in_flight())
        << "seed " << seed << " round " << round << "; " << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PifChaos,
                         ::testing::ValuesIn(campaign_seeds(
                             {1ull, 2ull, 3ull, 4ull})));

class IdlChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IdlChaos, LearnsExactTablesAfterEveryStrike) {
  const std::uint64_t seed = GetParam();
  const std::vector<std::int64_t> ids = {70, 20, 50, 90};
  const int n = static_cast<int>(ids.size());
  Simulator sim(n, 1, seed);
  for (int i = 0; i < n; ++i)
    sim.add_process(std::make_unique<IdlProcess>(
        ids[static_cast<std::size_t>(i)], n - 1, 1));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
  sim::Adversary adversary(seed + 2);

  for (int round = 0; round < 10; ++round) {
    const auto report = adversary.strike(sim);
    const int initiator = round % n;
    ASSERT_EQ(serve(sim, initiator, svc::Idl{}, 500'000),
              svc::AwaitResult::Done)
        << "seed " << seed << " round " << round << "; " << report.summary();
    EXPECT_EQ(sim.process_as<IdlProcess>(initiator).idl().min_id(), 20)
        << "seed " << seed << " round " << round << "; " << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdlChaos,
                         ::testing::ValuesIn(campaign_seeds(
                             {11ull, 12ull, 13ull})));

class MeChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeChaos, ExclusionSurvivesRepeatedStrikes) {
  const std::uint64_t seed = GetParam();
  const int n = 3;
  Simulator sim(n, 1, seed);
  for (int i = 0; i < n; ++i)
    sim.add_process(std::make_unique<MeStackProcess>(i + 1, n - 1));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
  sim::Adversary adversary(seed + 2);

  for (int round = 0; round < 6; ++round) {
    // Strike, but never while a process is inside the CS — the state of a
    // process mid-CS includes the countdown, and scrambling it would model
    // a fault *inside* the resource, which even the paper cannot protect.
    bool any_in_cs = true;
    while (any_in_cs) {
      any_in_cs = false;
      for (int p = 0; p < n; ++p)
        if (sim.process_as<MeStackProcess>(p).me().in_cs()) any_in_cs = true;
      if (any_in_cs) sim.run(500);
    }
    const auto report = adversary.strike(sim);
    // Clear any fuzz-planted ghost CS so the round is well-defined.
    for (int p = 0; p < n; ++p)
      sim.process_as<MeStackProcess>(p).me().mutable_state().cs_remaining = 0;

    const int requester = round % n;
    const std::size_t log_mark = sim.log().events().size();
    // The fuzzed request variable may not be Done; clear it so the round's
    // session starts at once instead of queuing behind a ghost request.
    auto& me = sim.process_as<MeStackProcess>(requester).me();
    me.mutable_state().request = core::RequestState::Done;
    me.mutable_state().externally_requested = false;
    ASSERT_EQ(serve(sim, requester, svc::CriticalSection{}, 3'000'000),
              svc::AwaitResult::Done)
        << "seed " << seed << " round " << round << "; " << report.summary();
    // The requested CS of this round did not overlap any other CS.
    const auto& events = sim.log().events();
    bool requested_entered = false;
    for (std::size_t i = log_mark; i < events.size(); ++i)
      if (events[i].process == requester &&
          events[i].kind == sim::ObsKind::CsEnter &&
          events[i].value.as_int() == 1)
        requested_entered = true;
    EXPECT_TRUE(requested_entered)
        << "seed " << seed << " round " << round << "; " << report.summary();
  }
  const auto report = core::check_me_spec(sim, {.require_liveness = false});
  EXPECT_TRUE(report.ok()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeChaos,
                         ::testing::Values(21ull, 22ull, 23ull));

TEST(Timeline, RendersFilteredEvents) {
  Simulator sim(2, 1, 1);
  sim.add_process(std::make_unique<PifProcess>(1, 1));
  sim.add_process(std::make_unique<PifProcess>(1, 1));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(2));
  serve(sim, 0, svc::PifBroadcast{Value::text("hello")}, 100'000);

  const std::string all = sim::render_timeline(sim.log());
  EXPECT_NE(all.find("start"), std::string::npos);
  EXPECT_NE(all.find("decide"), std::string::npos);
  EXPECT_NE(all.find("\"hello\""), std::string::npos);

  sim::TimelineOptions only;
  only.process = 1;
  const std::string only_p1 = sim::render_timeline(sim.log(), only);
  EXPECT_EQ(only_p1.find("| p0 "), std::string::npos);
  EXPECT_NE(only_p1.find("| p1 "), std::string::npos);
}

TEST(Timeline, TruncatesLongLogs) {
  sim::ObservationLog log;
  for (int i = 0; i < 300; ++i)
    log.emit(sim::Observation{static_cast<std::uint64_t>(i), 0,
                              sim::Layer::Pif, sim::ObsKind::RecvBrd, 0,
                              Value::integer(i)});
  sim::TimelineOptions options;
  options.max_rows = 50;
  const std::string out = sim::render_timeline(log, options);
  EXPECT_NE(out.find("250 more rows omitted"), std::string::npos);
}

}  // namespace
}  // namespace snapstab
