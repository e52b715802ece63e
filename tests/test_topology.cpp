// test_topology.cpp — invariants of the graph-parametric topology layer.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/stack.hpp"
#include "fenwick.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace snapstab::sim {
namespace {

std::vector<Topology> builtin_topologies() {
  std::vector<Topology> out;
  for (int n : {2, 3, 4, 7}) out.push_back(Topology::complete(n));
  for (int n : {2, 3, 5, 8}) out.push_back(Topology::ring(n));
  for (int n : {2, 4, 9}) out.push_back(Topology::line(n));
  for (int n : {2, 3, 6, 10}) out.push_back(Topology::star(n));
  for (std::uint64_t seed : {1u, 2u, 3u})
    out.push_back(Topology::random_tree(12, seed));
  out.push_back(Topology::from_edges(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}, "house"));
  return out;
}

// peer_of / index_of round-trip, local-index bijectivity, and edge
// addressing consistency — on every built-in topology.
TEST(Topology, LocalNumberingRoundTripsOnEveryBuilder) {
  for (const Topology& t : builtin_topologies()) {
    SCOPED_TRACE(t.name() + "/n=" + std::to_string(t.process_count()));
    int directed = 0;
    for (ProcessId p = 0; p < t.process_count(); ++p) {
      std::set<ProcessId> peers;
      for (int k = 0; k < t.degree(p); ++k) {
        const ProcessId q = t.peer_of(p, k);
        ASSERT_NE(q, p);
        EXPECT_TRUE(peers.insert(q).second) << "duplicate neighbor";
        EXPECT_EQ(t.index_of(p, q), k);
        EXPECT_TRUE(t.adjacent(p, q));
        EXPECT_TRUE(t.adjacent(q, p));

        const EdgeId out = t.out_edge(p, k);
        EXPECT_EQ(t.edge_src(out), p);
        EXPECT_EQ(t.edge_dst(out), q);
        EXPECT_EQ(t.edge_index_at_src(out), k);
        EXPECT_EQ(t.edge_between(p, q), out);

        const EdgeId in = t.in_edge(p, k);
        EXPECT_EQ(t.edge_src(in), q);
        EXPECT_EQ(t.edge_dst(in), p);
        EXPECT_EQ(t.edge_index_at_dst(in), k);
        EXPECT_EQ(t.edge_between(q, p), in);
      }
      directed += t.degree(p);
    }
    EXPECT_EQ(t.edge_count(), directed);
  }
}

TEST(Topology, EdgeIdsAreCanonicallyOrdered) {
  for (const Topology& t : builtin_topologies()) {
    SCOPED_TRACE(t.name() + "/n=" + std::to_string(t.process_count()));
    for (EdgeId e = 1; e < t.edge_count(); ++e) {
      const auto prev = std::pair{t.edge_src(e - 1), t.edge_dst(e - 1)};
      const auto curr = std::pair{t.edge_src(e), t.edge_dst(e)};
      EXPECT_LT(prev, curr);
    }
  }
}

TEST(Topology, EveryBuilderIsConnected) {
  for (const Topology& t : builtin_topologies()) {
    SCOPED_TRACE(t.name() + "/n=" + std::to_string(t.process_count()));
    EXPECT_TRUE(t.connected());
  }
}

TEST(Topology, DisconnectedGraphIsDetected) {
  const auto t = Topology::from_edges(4, {{0, 1}, {2, 3}}, "split");
  EXPECT_FALSE(t.connected());
}

TEST(Topology, CompleteKeepsTheSeedRotationNumbering) {
  // The historic dense Network numbered channels by the rotation
  // peer_of(p, k) = (p + 1 + k) mod n; protocols' local indices — and hence
  // recorded traces — depend on it.
  for (int n : {2, 3, 5, 8}) {
    const auto t = Topology::complete(n);
    for (ProcessId p = 0; p < n; ++p)
      for (int k = 0; k < n - 1; ++k)
        EXPECT_EQ(t.peer_of(p, k), (p + 1 + k) % n);
  }
}

TEST(Topology, ShapesHaveExpectedDegrees) {
  const auto star = Topology::star(7);
  EXPECT_EQ(star.degree(0), 6);
  for (ProcessId leaf = 1; leaf < 7; ++leaf) EXPECT_EQ(star.degree(leaf), 1);
  EXPECT_EQ(star.max_degree(), 6);

  const auto ring = Topology::ring(6);
  for (ProcessId p = 0; p < 6; ++p) EXPECT_EQ(ring.degree(p), 2);

  const auto line = Topology::line(5);
  EXPECT_EQ(line.degree(0), 1);
  EXPECT_EQ(line.degree(4), 1);
  for (ProcessId p = 1; p < 4; ++p) EXPECT_EQ(line.degree(p), 2);

  // A tree on n nodes has n-1 undirected links = 2(n-1) directed edges.
  const auto tree = Topology::random_tree(20, 42);
  EXPECT_EQ(tree.edge_count(), 2 * 19);
  EXPECT_TRUE(tree.connected());
}

TEST(Topology, RandomTreeIsDeterministicInSeed) {
  const auto a = Topology::random_tree(15, 9);
  const auto b = Topology::random_tree(15, 9);
  const auto c = Topology::random_tree(15, 10);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  bool differs_from_c = a.edge_count() != c.edge_count();
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.edge_src(e), b.edge_src(e));
    EXPECT_EQ(a.edge_dst(e), b.edge_dst(e));
    if (!differs_from_c &&
        (a.edge_src(e) != c.edge_src(e) || a.edge_dst(e) != c.edge_dst(e)))
      differs_from_c = true;
  }
  EXPECT_TRUE(differs_from_c);
}

TEST(FenwickSet, CountAndSelect) {
  FenwickSet set;
  set.reset(10);
  EXPECT_EQ(set.count(), 0);
  for (int i : {7, 2, 9, 0}) set.add(i, 1);
  EXPECT_EQ(set.count(), 4);
  EXPECT_EQ(set.kth(0), 0);
  EXPECT_EQ(set.kth(1), 2);
  EXPECT_EQ(set.kth(2), 7);
  EXPECT_EQ(set.kth(3), 9);
  set.add(2, -1);
  EXPECT_EQ(set.count(), 3);
  EXPECT_EQ(set.kth(1), 7);
}

// --- protocols over sparse topologies -------------------------------------

std::unique_ptr<Simulator> pif_world_on(Topology topo, std::uint64_t seed) {
  const int n = topo.process_count();
  auto sim = std::make_unique<Simulator>(std::move(topo), std::size_t{1}, seed);
  for (ProcessId p = 0; p < n; ++p)
    sim->add_process(std::make_unique<core::PifProcess>(
        sim->topology().degree(p), /*channel_capacity=*/1));
  return sim;
}

// PIF runs unmodified on any connected graph: processes only speak local
// channel indices. The initiator's handshake with each neighbor completes
// and it decides.
TEST(TopologySim, PifCompletesOnSparseTopologies) {
  std::vector<Topology> shapes;
  shapes.push_back(Topology::ring(8));
  shapes.push_back(Topology::line(6));
  shapes.push_back(Topology::star(9));
  shapes.push_back(Topology::random_tree(10, 4));
  for (Topology& topo : shapes) {
    SCOPED_TRACE(topo.name());
    auto sim = pif_world_on(std::move(topo), 17);
    sim->process_as<core::PifProcess>(0).pif().request(Value::integer(42));
    sim->set_scheduler(std::make_unique<sim::RandomScheduler>(17));
    const auto reason =
        sim->run(500'000, [](Simulator& s) {
          return s.process_as<core::PifProcess>(0).pif().done();
        });
    EXPECT_EQ(reason, Simulator::StopReason::Predicate);
    // Every neighbor of the initiator saw the broadcast.
    int recv_brd = 0;
    for (const auto& e : sim->log().events())
      if (e.kind == ObsKind::RecvBrd && e.value == Value::integer(42))
        ++recv_brd;
    EXPECT_GE(recv_brd, sim->topology().degree(0));
  }
}

// Same seed ⇒ same execution, also on sparse topologies.
TEST(TopologySim, SparseRunsAreDeterministic) {
  const auto run_once = [] {
    auto sim = pif_world_on(Topology::random_tree(9, 5), 23);
    sim->process_as<core::PifProcess>(3).pif().request(Value::integer(1));
    sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
        23, LossOptions{.rate = 0.2, .max_consecutive = 4}));
    sim->run(50'000);
    std::vector<std::uint64_t> digest{sim->metrics().deliveries,
                                      sim->metrics().adversary_losses,
                                      sim->metrics().sends,
                                      sim->log().size()};
    return digest;
  };
  EXPECT_EQ(run_once(), run_once());
}

// The channel-occupancy hooks keep the deliverable index exact even when
// tests stuff channels behind the scheduler's back.
TEST(TopologySim, ExternalChannelMutationIsTracked) {
  auto sim = pif_world_on(Topology::ring(4), 3);
  EXPECT_EQ(sim->deliverable_count(), 0);
  sim->network().channel(0, 1).push(Message::naive_brd(Value::none()));
  EXPECT_EQ(sim->deliverable_count(), 1);
  EXPECT_EQ(sim->nth_deliverable(0), sim->topology().edge_between(0, 1));
  sim->network().channel(0, 1).clear();
  EXPECT_EQ(sim->deliverable_count(), 0);
}

TEST(TopologySim, NonAdjacentChannelAccessAborts) {
  auto topo = Topology::line(3);  // 0-1-2: no channel 0 -> 2
  Network net(std::move(topo), 1);
  EXPECT_DEATH(net.channel(0, 2), "no channel between these processes");
}

}  // namespace
}  // namespace snapstab::sim
