// Tests for the simulated machine abstraction (src/sim/network).
#include <gtest/gtest.h>

#include <random>

#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "graph/algorithms.hpp"
#include "sim/network.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {
namespace {

TEST(Machine, DirectIsIdentity) {
  const Machine m = Machine::direct(debruijn_base2(3));
  EXPECT_EQ(m.num_logical(), 8u);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(m.to_physical[v], v);
    EXPECT_EQ(m.to_logical[v], v);
    EXPECT_FALSE(m.dead[v]);
  }
}

TEST(Machine, DirectWithFaultsMarksDead) {
  const FaultSet faults(8, {2, 6});
  const Machine m = Machine::direct_with_faults(debruijn_base2(3), faults);
  EXPECT_TRUE(m.dead[2]);
  EXPECT_TRUE(m.dead[6]);
  EXPECT_FALSE(m.dead[0]);
}

TEST(Machine, DirectWithFaultsUniverseMismatchThrows) {
  const FaultSet faults(9, {2});
  EXPECT_THROW(Machine::direct_with_faults(debruijn_base2(3), faults), std::invalid_argument);
}

TEST(Machine, ReconfiguredMapsAroundFaults) {
  const Graph ft = ft_debruijn_base2(3, 1);  // 9 nodes
  const FaultSet faults(9, {4});
  const Machine m = Machine::reconfigured(ft, faults, 8);
  EXPECT_EQ(m.num_logical(), 8u);
  EXPECT_EQ(m.to_physical[3], 3u);
  EXPECT_EQ(m.to_physical[4], 5u);  // skips the fault
  EXPECT_EQ(m.to_logical[5], 4u);
  EXPECT_EQ(m.to_logical[4], kInvalidNode);
  EXPECT_TRUE(m.dead[4]);
}

TEST(Machine, ReconfiguredTooManyFaultsThrows) {
  const Graph ft = ft_debruijn_base2(3, 1);
  const FaultSet faults(9, {0, 1});
  EXPECT_THROW(Machine::reconfigured(ft, faults, 8), std::invalid_argument);
}

TEST(Machine, LiveLogicalGraph_HealthyDirectEqualsTarget) {
  const Graph target = debruijn_base2(4);
  const Machine m = Machine::direct(target);
  EXPECT_TRUE(m.live_logical_graph(target).same_structure(target));
}

TEST(Machine, LiveLogicalGraph_FaultsRemoveIncidentEdges) {
  const Graph target = debruijn_base2(3);
  const FaultSet faults(8, {1});
  const Machine m = Machine::direct_with_faults(target, faults);
  const Graph live = m.live_logical_graph(target);
  EXPECT_EQ(live.degree(1), 0u);
  EXPECT_LT(live.num_edges(), target.num_edges());
}

TEST(Machine, LiveLogicalGraph_ReconfiguredPresentsFullTarget) {
  // The paper's guarantee, operationally: after reconfiguration every target
  // edge is a live physical link.
  const Graph target = debruijn_base2(4);
  const Graph ft = ft_debruijn_base2(4, 2);
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    const FaultSet faults = FaultSet::random(ft.num_nodes(), 2, rng);
    const Machine m = Machine::reconfigured(ft, faults, target.num_nodes());
    EXPECT_TRUE(m.live_logical_graph(target).same_structure(target)) << "trial " << trial;
  }
}

// presents() must agree with rebuilding the live graph and comparing it to
// the target, on reconfigured fabrics (always presenting) and on bare faulty
// targets (presenting only when no fault touches an edge).
void expect_presents_matches_rebuild(const Graph& target, const Graph& fabric, unsigned k,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t count = rng() % (k + 1);
    const FaultSet faults = FaultSet::random(fabric.num_nodes(), count, rng);
    const Machine m = Machine::reconfigured(fabric, faults, target.num_nodes());
    const bool rebuilt = m.live_logical_graph(target).same_structure(target);
    EXPECT_TRUE(rebuilt) << "trial " << trial;
    EXPECT_EQ(m.presents(target), rebuilt) << "trial " << trial;

    const FaultSet bare = FaultSet::random(target.num_nodes(), count, rng);
    const Machine degraded = Machine::direct_with_faults(target, bare);
    EXPECT_EQ(degraded.presents(target),
              degraded.live_logical_graph(target).same_structure(target))
        << "trial " << trial;
  }
}

TEST(Machine, PresentsMatchesLiveGraphRebuild_DeBruijn) {
  for (unsigned k : {1u, 3u}) {
    expect_presents_matches_rebuild(debruijn_base2(5), ft_debruijn_base2(5, k), k, 100 + k);
  }
}

TEST(Machine, PresentsMatchesLiveGraphRebuild_ShuffleExchange) {
  for (unsigned k : {1u, 2u}) {
    expect_presents_matches_rebuild(shuffle_exchange_graph(5),
                                    ft_shuffle_exchange_natural(5, k).ft_graph, k, 200 + k);
  }
}

TEST(Machine, PresentsFailsOnMissingTargetImageAndDiameterFallsBackToBfs) {
  const Graph target = debruijn_base2(5);
  const Graph ft = ft_debruijn_base2(5, 2);
  const FaultSet faults(ft.num_nodes(), {3, 17});
  const Machine intact = Machine::reconfigured(ft, faults, target.num_nodes());
  ASSERT_TRUE(intact.presents(target));
  const std::uint32_t target_diameter = diameter(target);
  EXPECT_EQ(live_logical_diameter(intact, target, target_diameter), target_diameter);

  // Delete the physical image of each target edge in turn.
  for (const Edge& cut : target.edges()) {
    const NodeId pu = intact.to_physical[cut.u];
    const NodeId pv = intact.to_physical[cut.v];
    GraphBuilder b(ft.num_nodes());
    for (const Edge& e : ft.edges()) {
      if (!((e.u == pu && e.v == pv) || (e.u == pv && e.v == pu))) b.add_edge(e.u, e.v);
    }
    const Machine m = Machine::reconfigured(b.build(), faults, target.num_nodes());
    const Graph live = m.live_logical_graph(target);
    ASSERT_FALSE(live.same_structure(target));
    EXPECT_FALSE(m.presents(target)) << cut.u << "-" << cut.v;
    // The fallback is the BFS diameter of the live graph, never the target's
    // value passed in.
    EXPECT_EQ(live_logical_diameter(m, target, target_diameter), diameter(live));
    EXPECT_EQ(live_logical_diameter(m, target, 12345), diameter(live));
  }
}

TEST(EdgeFaults, ConvertedToCoveringNodeFaults) {
  const Graph g = debruijn_base2(3);
  const std::vector<Edge> bad{{0, 1}, {1, 2}};
  const auto nodes = edge_faults_to_node_faults(g, bad);
  // Node 1 covers both faulty edges.
  EXPECT_EQ(nodes, (std::vector<NodeId>{1}));
}

TEST(EdgeFaults, DisjointEdgesNeedTwoNodes) {
  const Graph g = debruijn_base2(3);
  const std::vector<Edge> bad{{0, 1}, {6, 7}};
  const auto nodes = edge_faults_to_node_faults(g, bad);
  EXPECT_EQ(nodes.size(), 2u);
}

TEST(EdgeFaults, EmptyInput) {
  EXPECT_TRUE(edge_faults_to_node_faults(debruijn_base2(3), {}).empty());
}

}  // namespace
}  // namespace ftdb::sim
