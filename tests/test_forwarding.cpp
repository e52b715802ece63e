// test_forwarding.cpp — the snap-stabilizing message-forwarding service.
//
// The headline property (the service's Specification): from an *arbitrary*
// initial configuration — corrupted hop handshakes, garbage-stuffed per-hop
// queues, channels pre-loaded with forged FwdData/FwdEcho traffic — every
// payload submitted after initialization is delivered to its destination
// exactly once, over lossy channels, on every topology. Ghost deliveries
// (initial-configuration garbage surfacing at some destination) are
// permitted but bounded by the number of corrupted entries the run started
// with. Also covers: shortest-path routing tables, the packed routing
// header, bounded-buffer backpressure, and the service under the thread
// runtime's codec-encoded mailboxes.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <tuple>
#include <vector>

#include "core/forward_world.hpp"
#include "core/specs.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/adversary.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

namespace snapstab {
namespace {

using core::Forward;
using core::ForwardProcess;
using sim::RoutingTable;
using sim::Simulator;
using sim::Topology;

// ---------------------------------------------------------------------------
// Routing tables.
// ---------------------------------------------------------------------------

TEST(RoutingTable, LineRoutesAlongThePath) {
  const Topology topo = Topology::line(5);
  const RoutingTable routes(topo);
  EXPECT_EQ(routes.distance(0, 4), 4);
  EXPECT_EQ(routes.distance(4, 0), 4);
  EXPECT_EQ(routes.distance(2, 2), 0);
  for (int at = 0; at < 4; ++at) EXPECT_EQ(routes.next_hop(at, 4), at + 1);
  for (int at = 4; at > 0; --at) EXPECT_EQ(routes.next_hop(at, 0), at - 1);
}

TEST(RoutingTable, RingTakesTheShortArcAndBreaksTiesLow) {
  const Topology topo = Topology::ring(6);
  const RoutingTable routes(topo);
  EXPECT_EQ(routes.distance(0, 2), 2);
  EXPECT_EQ(routes.next_hop(0, 2), 1);
  EXPECT_EQ(routes.next_hop(0, 4), 5);  // the short way round
  // Antipodal pair: both arcs have length 3; the tie breaks toward the
  // smaller next-hop id.
  EXPECT_EQ(routes.distance(0, 3), 3);
  EXPECT_EQ(routes.next_hop(0, 3), 1);
}

TEST(RoutingTable, EveryPairConvergesOnEveryBuilder) {
  std::vector<Topology> topologies;
  topologies.push_back(Topology::complete(5));
  topologies.push_back(Topology::ring(7));
  topologies.push_back(Topology::star(6));
  topologies.push_back(Topology::random_tree(9, 3));
  topologies.push_back(Topology::from_edges(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}, "house"));
  for (const Topology& topo : topologies) {
    SCOPED_TRACE(topo.name());
    const RoutingTable routes(topo);
    const int n = topo.process_count();
    for (int a = 0; a < n; ++a)
      for (int b = 0; b < n; ++b) {
        if (a == b) {
          EXPECT_EQ(routes.distance(a, b), 0);
          continue;
        }
        // Walking the table reaches b in exactly distance(a, b) hops.
        int at = a;
        for (int hops = routes.distance(a, b); hops > 0; --hops) {
          EXPECT_EQ(routes.distance(at, b), hops);
          at = topo.peer_of(at, routes.next_index(at, b));
        }
        EXPECT_EQ(at, b);
      }
  }
}

// ---------------------------------------------------------------------------
// Routing header.
// ---------------------------------------------------------------------------

TEST(FwdHeader, PacksAndUnpacksEveryField) {
  const FwdHeader h{1234, 567, 0xFFFFFu};
  EXPECT_EQ(unpack_fwd_header(pack_fwd_header(h)), h);
  EXPECT_EQ(unpack_fwd_header(0), (FwdHeader{0, 0, 0}));
  // unpack is total: arbitrary bits yield some in-range header fields.
  const FwdHeader wild = unpack_fwd_header(-1);
  EXPECT_GE(wild.origin, 0);
  EXPECT_LE(wild.origin, 0xFFFF);
  EXPECT_GE(wild.dst, 0);
  EXPECT_LE(wild.dst, 0xFFFF);
}

// ---------------------------------------------------------------------------
// Clean-start delivery.
// ---------------------------------------------------------------------------

// Stop predicate: every submission of this test (payloads >= kBase) has
// surfaced as a delivery.
constexpr std::int64_t kBase = 1'000'000;

// Submits `payload` at `origin` for `dst`; true when the service accepted it
// (every refusal reason reads false here).
bool submit(Simulator& sim, sim::ProcessId origin, sim::ProcessId dst,
            const Value& payload) {
  return svc::Client(sim)
      .submit(origin, svc::ForwardMsg{.dst = dst, .payload = payload})
      .accepted();
}

std::function<bool(Simulator&)> delivered_at_least(int expected) {
  // Incremental log scan — shared cursor so the per-step cost stays O(new).
  auto scanned = std::make_shared<std::size_t>(0);
  auto matched = std::make_shared<int>(0);
  return [scanned, matched, expected](Simulator& s) {
    const auto& events = s.log().events();
    for (; *scanned < events.size(); ++*scanned) {
      const auto& e = events[*scanned];
      if (e.layer == sim::Layer::Service &&
          e.kind == sim::ObsKind::FwdDeliver && e.value.as_int() >= kBase)
        ++*matched;
    }
    return *matched >= expected;
  };
}

TEST(Forwarding, SingleHopDeliversExactlyOnce) {
  auto sim = core::forward_world(Topology::line(2), 1, 1);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(1));
  ASSERT_TRUE(submit(*sim, 0, 1, Value::integer(kBase)));
  ASSERT_EQ(sim->run(100'000, delivered_at_least(1)),
            Simulator::StopReason::Predicate);
  const auto report = core::check_forward_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(sim->process_as<ForwardProcess>(1).forward().delivered_count(),
            1u);
}

TEST(Forwarding, MultiHopCrossTrafficOnALine) {
  auto sim = core::forward_world(Topology::line(5), 1, 2);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(2));
  ASSERT_TRUE(submit(*sim, 0, 4, Value::integer(kBase + 0)));
  ASSERT_TRUE(submit(*sim, 4, 0, Value::integer(kBase + 1)));
  ASSERT_TRUE(submit(*sim, 1, 3, Value::integer(kBase + 2)));
  ASSERT_TRUE(submit(*sim, 2, 2, Value::integer(kBase + 3)));
  ASSERT_EQ(sim->run(2'000'000, delivered_at_least(4)),
            Simulator::StopReason::Predicate);
  const auto report = core::check_forward_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
  // The relays actually relayed (0 -> 4 crosses three intermediate nodes).
  std::uint64_t relayed = 0;
  for (int p = 0; p < 5; ++p)
    relayed += sim->process_as<ForwardProcess>(p).forward().relayed_count();
  EXPECT_GE(relayed, 6u);
}

TEST(Forwarding, SelfAddressedSubmissionDeliversLocally) {
  auto sim = core::forward_world(Topology::line(2), 1, 3,
                                 Forward::Options{.hop_buffer = 2});
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(3));
  ASSERT_TRUE(submit(*sim, 0, 0, Value::integer(kBase)));
  ASSERT_TRUE(submit(*sim, 0, 0, Value::integer(kBase + 1)));
  // The local delivery queue honors the same hop_buffer bound as out-links.
  EXPECT_FALSE(submit(*sim, 0, 0, Value::integer(kBase + 2)));
  ASSERT_EQ(sim->run(10'000, delivered_at_least(2)),
            Simulator::StopReason::Predicate);
  EXPECT_TRUE(core::check_forward_spec(*sim).ok());
}

TEST(Forwarding, RejectsDestinationsOutsideTheTopology) {
  auto sim = core::forward_world(Topology::line(3), 1, 4);
  auto& fwd = sim->process_as<ForwardProcess>(0).forward();
  EXPECT_EQ(fwd.submit(Value::integer(1), -1), core::ForwardSubmit::NoRoute);
  EXPECT_EQ(fwd.submit(Value::integer(1), 3), core::ForwardSubmit::NoRoute);
}

// ---------------------------------------------------------------------------
// Bounded per-hop buffers.
// ---------------------------------------------------------------------------

TEST(Forwarding, FullFirstHopBufferRefusesWithoutLosingAcceptedPayloads) {
  auto sim = core::forward_world(Topology::line(3), 1, 5,
                                 Forward::Options{.hop_buffer = 2});
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(5));
  // Two submissions fill the first hop (one active + one queued); the third
  // is refused and records nothing.
  ASSERT_TRUE(submit(*sim, 0, 2, Value::integer(kBase + 0)));
  ASSERT_TRUE(submit(*sim, 0, 2, Value::integer(kBase + 1)));
  // A refused submission records no FwdSubmit, so the spec check below
  // expects exactly the two accepted payloads.
  EXPECT_FALSE(submit(*sim, 0, 2, Value::integer(kBase + 2)));
  ASSERT_EQ(sim->run(1'000'000, delivered_at_least(2)),
            Simulator::StopReason::Predicate);
  const auto report = core::check_forward_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Forwarding, BackpressureStallsTheHandshakeInsteadOfDropping) {
  // Relay 1 sits between 0 and 2 with a one-slot buffer; flood it from 0.
  auto sim = core::forward_world(Topology::line(3), 1, 6,
                                 Forward::Options{.hop_buffer = 1});
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(6));
  ASSERT_TRUE(submit(*sim, 0, 2, Value::integer(kBase + 0)));
  ASSERT_EQ(sim->run(1'000'000, delivered_at_least(1)),
            Simulator::StopReason::Predicate);
  ASSERT_TRUE(submit(*sim, 0, 2, Value::integer(kBase + 1)));
  ASSERT_EQ(sim->run(1'000'000, delivered_at_least(2)),
            Simulator::StopReason::Predicate);
  const auto report = core::check_forward_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Snap-stabilization: arbitrary initial configurations.
// ---------------------------------------------------------------------------

// topology family × seed; 3 families × 17 seeds = 51 fuzzed configurations.
class ForwardingSnap
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

Topology snap_topology(int family, std::uint64_t seed) {
  switch (family) {
    case 0:
      return Topology::ring(6);
    case 1:
      return Topology::random_tree(8, seed);
    default: {
      // A random connected non-tree graph: attachment tree plus chords.
      std::vector<std::pair<int, int>> edges;
      Rng rng(seed * 977 + 11);
      const int n = 7;
      for (int v = 1; v < n; ++v)
        edges.emplace_back(
            static_cast<int>(rng.below(static_cast<std::uint64_t>(v))), v);
      edges.emplace_back(static_cast<int>(rng.below(n - 1)) + 1, 0);
      edges.emplace_back(static_cast<int>(rng.below(n - 2)) + 2, 1);
      return Topology::from_edges(n, edges, "random-graph");
    }
  }
}

TEST_P(ForwardingSnap, EveryPostInitSendDeliveredExactlyOnce) {
  const auto [family, seed] = GetParam();
  const int capacity = 1 + static_cast<int>(seed % 2);  // c ∈ {1, 2}
  auto sim = core::forward_world(
      snap_topology(family, seed), static_cast<std::size_t>(capacity),
      seed * 31 + static_cast<std::uint64_t>(family));
  const int n = sim->process_count();

  // Arbitrary initial configuration: scrambled handshakes and queues,
  // channels stuffed with forged forwarding traffic.
  Rng fuzz_rng(seed * 7919 + static_cast<std::uint64_t>(family));
  sim::FuzzOptions fuzz_opts;
  fuzz_opts.flag_limit = 2 * capacity + 2;
  fuzz_opts.forward_header_n = n;
  sim::fuzz(*sim, fuzz_rng, fuzz_opts);
  const std::uint64_t budget = core::forward_ghost_budget(*sim);

  // Post-initialization sends: distinctive payloads no fuzzed message can
  // collide with, across seed-dependent multi-hop routes.
  const int submissions = 4;
  int accepted = 0;
  Rng pick(seed + 1);
  while (accepted < submissions) {
    const auto origin =
        static_cast<int>(pick.below(static_cast<std::uint64_t>(n)));
    const auto dst =
        static_cast<int>(pick.below(static_cast<std::uint64_t>(n)));
    if (submit(*sim, origin, dst, Value::integer(kBase + accepted)))
      ++accepted;
  }

  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      seed + 2, sim::LossOptions{.rate = 0.25, .max_consecutive = 4}));
  ASSERT_EQ(sim->run(5'000'000, delivered_at_least(submissions)),
            Simulator::StopReason::Predicate)
      << "submissions not delivered from fuzzed configuration";

  const auto report = core::check_forward_spec(
      *sim, {.require_all_delivered = true, .max_ghost_deliveries = budget});
  EXPECT_TRUE(report.ok()) << report.summary();

  // Channel conservation held through fuzzing, drops and deliveries.
  const auto stats = sim->network().aggregate_channel_stats();
  EXPECT_EQ(stats.pushed,
            stats.removed() + sim->network().total_messages_in_flight());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ForwardingSnap,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Range<std::uint64_t>(1, 18)));

TEST(Forwarding, GhostDeliveriesStayWithinTheCorruptionBudget) {
  // No submissions at all: every delivery the run produces is a ghost and
  // must be attributable to a corrupted initial entry.
  auto sim = core::forward_world(Topology::ring(6), 2, 77);
  Rng fuzz_rng(77);
  sim::FuzzOptions fuzz_opts;
  fuzz_opts.flag_limit = 6;
  fuzz_opts.forward_header_n = 6;
  sim::fuzz(*sim, fuzz_rng, fuzz_opts);
  const std::uint64_t budget = core::forward_ghost_budget(*sim);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(78));
  sim->run(300'000);
  std::uint64_t ghosts = 0;
  for (const auto& e : sim->log().events())
    if (e.kind == sim::ObsKind::FwdDeliver) ++ghosts;
  EXPECT_LE(ghosts, budget);
  const auto report = core::check_forward_spec(
      *sim, {.require_all_delivered = true, .max_ghost_deliveries = budget});
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Sustained chaos: strike / submit / verify, round after round.
// ---------------------------------------------------------------------------

TEST(Forwarding, SurvivesRepeatedAdversaryStrikes) {
  auto sim = core::forward_world(Topology::ring(5), 1, 91);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      92, sim::LossOptions{.rate = 0.15, .max_consecutive = 4}));
  sim::Adversary adversary(93, {.flag_limit = 4});
  for (int round = 0; round < 8; ++round) {
    adversary.strike(*sim);
    const int origin = round % 5;
    const int dst = (round + 2) % 5;
    const Value payload = Value::integer(kBase + round);
    ASSERT_TRUE(submit(*sim, origin, dst, payload));
    // Snap-stabilization, per round: the payload submitted *after* this
    // strike reaches its destination. (Remnants of earlier rounds may
    // lawfully re-surface after later strikes — the paper's unexpected
    // events — so each round watches only its own payload.)
    const std::size_t mark = sim->log().events().size();
    const auto done = [&, mark](Simulator& s) {
      const auto& events = s.log().events();
      for (std::size_t i = mark; i < events.size(); ++i)
        if (events[i].kind == sim::ObsKind::FwdDeliver &&
            events[i].process == dst && events[i].value == payload)
          return true;
      return false;
    };
    ASSERT_EQ(sim->run(5'000'000, done), Simulator::StopReason::Predicate)
        << "round " << round;
    // Conservation after every strike (clear + refill) and every round of
    // drops and deliveries — the invariant the adversary must not break.
    const auto stats = sim->network().aggregate_channel_stats();
    ASSERT_EQ(stats.pushed,
              stats.removed() + sim->network().total_messages_in_flight())
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// The thread runtime: hops ride codec-encoded mailbox datagrams.
// ---------------------------------------------------------------------------

TEST(Forwarding, DeliversAcrossThreadRuntimeMailboxes) {
  using namespace std::chrono_literals;
  const Topology topo = Topology::ring(4);
  auto routes = std::make_shared<const RoutingTable>(topo);
  runtime::ThreadRuntime rt(topo, {.seed = 11});
  for (int p = 0; p < 4; ++p)
    rt.add_process(std::make_unique<ForwardProcess>(p, topo.degree(p),
                                                    routes));
  rt.with_process<ForwardProcess>(0, [](ForwardProcess& p) {
    return p.forward().submit(Value::integer(kBase), 2);  // two hops away
  });
  const bool ok = rt.run(
      [&rt] {
        return rt.with_process<ForwardProcess>(2, [](ForwardProcess& p) {
          return p.forward().delivered_count() >= 1;
        });
      },
      10s);
  EXPECT_TRUE(ok) << "payload did not cross the thread runtime";
  int deliveries = 0;
  for (const auto& e : rt.observations())
    if (e.kind == sim::ObsKind::FwdDeliver &&
        e.value == Value::integer(kBase)) {
      ++deliveries;
      EXPECT_EQ(e.process, 2);
      EXPECT_EQ(e.peer, 0);  // origin travels in the packed header
    }
  EXPECT_EQ(deliveries, 1);
}

}  // namespace
}  // namespace snapstab
