// Property tests for the linear-time graph core: the counting-sort CSR
// construction must be byte-identical to the retained comparison-sort
// reference (`GraphBuilder::build_reference`), and the allocation-free
// BfsWorkspace / bit-parallel all-pairs engine must agree exactly with a
// plain queue-based BFS oracle — across random multigraphs, the paper
// construction grid (m, h, k) in {2,3,4} x {2..6} x {0..4}, and edge cases
// (empty graph, self-loops only, parallel edges).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "analysis/parallel_all_pairs.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/modmath.hpp"
#include "graph/algorithms.hpp"
#include "graph/bfs_workspace.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "graph/multi_source_bfs.hpp"
#include "topology/debruijn.hpp"
#include "topology/labels.hpp"
#include "topology/shuffle_exchange.hpp"

namespace {

using namespace ftdb;

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> queue_bfs_distances(const Graph& g, NodeId source) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::vector<NodeId> queue_bfs_parents(const Graph& g, NodeId source) {
  std::vector<NodeId> parent(g.num_nodes(), kInvalidNode);
  std::queue<NodeId> frontier;
  parent[source] = source;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : g.neighbors(u)) {
      if (parent[v] == kInvalidNode) {
        parent[v] = u;
        frontier.push(v);
      }
    }
  }
  return parent;
}

Graph random_multigraph(std::mt19937_64& rng, std::size_t max_nodes, GraphBuilder* out_builder) {
  std::uniform_int_distribution<std::size_t> node_dist(0, max_nodes);
  const std::size_t n = node_dist(rng);
  GraphBuilder b(n);
  if (n > 0) {
    std::uniform_int_distribution<std::size_t> edge_count(0, 4 * n);
    std::uniform_int_distribution<NodeId> node(0, static_cast<NodeId>(n - 1));
    const std::size_t m = edge_count(rng);
    for (std::size_t i = 0; i < m; ++i) {
      // Includes self-loops, duplicates and both endpoint orders by design.
      b.add_edge(node(rng), node(rng));
    }
  }
  if (out_builder != nullptr) *out_builder = b;
  return b.build();
}

void expect_identical(const Graph& fast, const Graph& reference) {
  ASSERT_EQ(fast.num_nodes(), reference.num_nodes());
  ASSERT_EQ(fast.num_edges(), reference.num_edges());
  // same_structure compares the raw offsets/adjacency arrays — byte-identical
  // CSR, not just an isomorphic edge set.
  EXPECT_TRUE(fast.same_structure(reference));
}

// ---------------------------------------------------------------------------
// Radix CSR construction vs the retained reference implementation
// ---------------------------------------------------------------------------

TEST(RadixCsrConstruction, MatchesReferenceOnRandomMultigraphs) {
  std::mt19937_64 rng(20260729);
  for (int trial = 0; trial < 200; ++trial) {
    GraphBuilder b(0);
    const Graph fast = random_multigraph(rng, 64, &b);
    expect_identical(fast, b.build_reference());
  }
}

TEST(RadixCsrConstruction, MatchesReferenceOnEdgeCases) {
  {
    GraphBuilder b(0);  // empty graph: no nodes, no edges
    expect_identical(b.build(), b.build_reference());
    EXPECT_EQ(b.build().num_nodes(), 0u);
  }
  {
    GraphBuilder b(5);  // nodes but no edges
    expect_identical(b.build(), b.build_reference());
    EXPECT_EQ(b.build().num_edges(), 0u);
  }
  {
    GraphBuilder b(4);  // self-loops only: all dropped
    for (NodeId v = 0; v < 4; ++v) b.add_edge(v, v);
    const Graph g = b.build();
    expect_identical(g, b.build_reference());
    EXPECT_EQ(g.num_edges(), 0u);
  }
  {
    GraphBuilder b(3);  // parallel edges in both orders: collapse to one
    for (int i = 0; i < 7; ++i) b.add_edge(0, 1);
    for (int i = 0; i < 7; ++i) b.add_edge(1, 0);
    b.add_edge(2, 2);
    const Graph g = b.build();
    expect_identical(g, b.build_reference());
    EXPECT_EQ(g.num_edges(), 1u);
    EXPECT_TRUE(g.has_edge(0, 1));
  }
}

TEST(RadixCsrConstruction, MatchesReferenceOnPaperConstructionGrid) {
  for (std::uint64_t m = 2; m <= 4; ++m) {
    for (unsigned h = 2; h <= 6; ++h) {
      for (unsigned k = 0; k <= 4; ++k) {
        const FtDeBruijnParams params{.base = m, .digits = h, .spares = k};
        const Graph fast = ft_debruijn_graph(params);

        // Reference: emit the defining arcs X(x, m, r, s) into the plain
        // builder and finalize with the retained comparison-sort path.
        const std::uint64_t n = ft_debruijn_num_nodes(params);
        const auto s = static_cast<std::int64_t>(n);
        const OffsetRange offsets = ft_debruijn_offsets(params);
        GraphBuilder b(n);
        for (std::int64_t x = 0; x < s; ++x) {
          for (std::int64_t r = offsets.lo; r <= offsets.hi; ++r) {
            b.add_edge(static_cast<NodeId>(x),
                       static_cast<NodeId>(ft::affine_mod(x, static_cast<std::int64_t>(m), r, s)));
          }
        }
        expect_identical(fast, b.build_reference());
      }
    }
  }
}

TEST(RadixCsrConstruction, MatchesReferenceOnTargetTopologies) {
  for (std::uint64_t m = 2; m <= 4; ++m) {
    for (unsigned h = 2; h <= 6; ++h) {
      const Graph fast = debruijn_graph({.base = static_cast<std::uint32_t>(m), .digits = h});
      const std::uint64_t n = labels::ipow_checked(m, h);
      GraphBuilder b(n);
      for (std::uint64_t x = 0; x < n; ++x) {
        for (std::uint64_t r = 0; r < m; ++r) {
          b.add_edge(static_cast<NodeId>(x), static_cast<NodeId>((x * m + r) % n));
        }
      }
      expect_identical(fast, b.build_reference());
    }
  }
  for (unsigned h = 2; h <= 8; ++h) {
    const Graph fast = shuffle_exchange_graph(h);
    const std::uint64_t n = labels::ipow_checked(2, h);
    GraphBuilder b(n);
    for (std::uint64_t x = 0; x < n; ++x) {
      b.add_edge(static_cast<NodeId>(x), static_cast<NodeId>(labels::rotate_left(x, 2, h)));
      b.add_edge(static_cast<NodeId>(x), static_cast<NodeId>(labels::exchange_bit0(x)));
    }
    expect_identical(fast, b.build_reference());
  }
}

TEST(RadixCsrConstruction, DigraphBuilderMatchesSortedArcConstruction) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::uniform_int_distribution<std::size_t> node_dist(1, 48);
    const std::size_t n = node_dist(rng);
    std::uniform_int_distribution<std::size_t> arc_count(0, 5 * n);
    std::uniform_int_distribution<NodeId> node(0, static_cast<NodeId>(n - 1));
    std::vector<std::pair<NodeId, NodeId>> arcs;
    const std::size_t m = arc_count(rng);
    for (std::size_t i = 0; i < m; ++i) arcs.emplace_back(node(rng), node(rng));

    DigraphBuilder builder(n);
    for (const auto& [u, v] : arcs) builder.add_arc(u, v);
    const Digraph fast = std::move(builder).build();

    // Reference: the original construction sorted the arc list and scattered
    // it into both CSRs; replicate that ordering directly.
    std::sort(arcs.begin(), arcs.end());
    ASSERT_EQ(fast.num_nodes(), n);
    ASSERT_EQ(fast.num_arcs(), arcs.size());
    std::vector<std::vector<NodeId>> out(n), in(n);
    for (const auto& [u, v] : arcs) {
      out[u].push_back(v);
      in[v].push_back(u);
    }
    for (std::size_t v = 0; v < n; ++v) {
      const auto fo = fast.out_neighbors(static_cast<NodeId>(v));
      const auto fi = fast.in_neighbors(static_cast<NodeId>(v));
      ASSERT_EQ(std::vector<NodeId>(fo.begin(), fo.end()), out[v]) << "node " << v;
      ASSERT_EQ(std::vector<NodeId>(fi.begin(), fi.end()), in[v]) << "node " << v;
    }
  }
}

TEST(RadixCsrConstruction, HalfEdgeFastPathRejectsOutOfRangeEndpoints) {
  std::vector<std::uint64_t> halves{(std::uint64_t{7} << 32) | 1, (std::uint64_t{1} << 32) | 7};
  EXPECT_THROW(GraphBuilder::from_half_edges(4, halves), std::out_of_range);
}

// ---------------------------------------------------------------------------
// BfsWorkspace vs the queue-based oracle
// ---------------------------------------------------------------------------

TEST(BfsWorkspaceProperty, DistancesAndParentsMatchQueueBfs) {
  std::mt19937_64 rng(7);
  BfsWorkspace ws;  // shared across all graphs/sources to exercise epoch reuse
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> parent;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = random_multigraph(rng, 48, nullptr);
    for (std::size_t s = 0; s < g.num_nodes(); ++s) {
      const auto source = static_cast<NodeId>(s);
      ws.distances(g, source, dist);
      EXPECT_EQ(dist, queue_bfs_distances(g, source));
      ws.parents(g, source, parent);
      EXPECT_EQ(parent, queue_bfs_parents(g, source));
    }
  }
}

TEST(BfsWorkspaceProperty, SweepMatchesDistanceAggregates) {
  std::mt19937_64 rng(11);
  BfsWorkspace ws;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = random_multigraph(rng, 48, nullptr);
    for (std::size_t s = 0; s < g.num_nodes(); ++s) {
      const auto source = static_cast<NodeId>(s);
      const auto sweep = ws.sweep(g, source);
      const auto dist = queue_bfs_distances(g, source);
      std::uint64_t reached = 0, total = 0;
      std::uint32_t ecc = 0;
      for (const std::uint32_t d : dist) {
        if (d == kUnreachable) continue;
        ++reached;
        total += d;
        ecc = std::max(ecc, d);
      }
      EXPECT_EQ(sweep.reached, reached);
      EXPECT_EQ(sweep.total_distance, total);
      EXPECT_EQ(sweep.eccentricity, ecc);
    }
  }
}

TEST(BfsWorkspaceProperty, WorksOnPaperConstructions) {
  BfsWorkspace ws;
  std::vector<std::uint32_t> dist;
  for (unsigned h = 2; h <= 5; ++h) {
    for (unsigned k = 0; k <= 3; ++k) {
      const Graph g = ft_debruijn_base2(h, k);
      for (const NodeId source : {NodeId{0}, static_cast<NodeId>(g.num_nodes() - 1)}) {
        ws.distances(g, source, dist);
        EXPECT_EQ(dist, queue_bfs_distances(g, source));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-parallel all-pairs engine vs per-source accumulation
// ---------------------------------------------------------------------------

ftdb::analysis::AllPairsSummary reference_all_pairs(const Graph& g) {
  ftdb::analysis::AllPairsSummary ref;
  ref.sources = g.num_nodes();
  ref.connected = true;
  if (g.num_nodes() <= 1) return ref;
  for (std::size_t s = 0; s < g.num_nodes(); ++s) {
    const auto dist = queue_bfs_distances(g, static_cast<NodeId>(s));
    std::uint64_t reached = 0;
    for (const std::uint32_t d : dist) {
      if (d == kUnreachable) continue;
      ++reached;
      ref.total_distance += d;
      ref.max_finite_distance = std::max(ref.max_finite_distance, d);
    }
    ref.reachable_pairs += reached - 1;
    ref.connected = ref.connected && reached == g.num_nodes();
  }
  return ref;
}

void expect_summary_eq(const ftdb::analysis::AllPairsSummary& a,
                       const ftdb::analysis::AllPairsSummary& b) {
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.reachable_pairs, b.reachable_pairs);
  EXPECT_EQ(a.total_distance, b.total_distance);
  EXPECT_EQ(a.max_finite_distance, b.max_finite_distance);
  EXPECT_EQ(a.connected, b.connected);
}

TEST(ParallelAllPairs, MatchesReferenceOnRandomGraphs) {
  std::mt19937_64 rng(2029);
  for (int trial = 0; trial < 80; ++trial) {
    const Graph g = random_multigraph(rng, 90, nullptr);  // spans multiple 64-wide batches
    const auto ref = reference_all_pairs(g);
    expect_summary_eq(ftdb::analysis::all_pairs_summary(g), ref);
    // Thread sharding must not change any aggregate (deterministic reduction).
    expect_summary_eq(ftdb::analysis::all_pairs_summary(g, {.threads = 3}), ref);
  }
}

TEST(ParallelAllPairs, MatchesReferenceOnPaperConstructions) {
  for (unsigned h = 2; h <= 6; ++h) {
    for (unsigned k : {0u, 2u}) {
      const Graph g = ft_debruijn_base2(h, k);
      expect_summary_eq(ftdb::analysis::all_pairs_summary(g), reference_all_pairs(g));
    }
  }
}

TEST(ParallelAllPairs, EdgeCases) {
  {
    const Graph g = make_graph(0, {});
    const auto s = ftdb::analysis::all_pairs_summary(g);
    EXPECT_TRUE(s.connected);
    EXPECT_EQ(s.reachable_pairs, 0u);
    EXPECT_EQ(ftdb::analysis::parallel_diameter(g), 0u);
  }
  {
    const Graph g = make_graph(1, {});
    EXPECT_TRUE(ftdb::analysis::all_pairs_summary(g).connected);
    EXPECT_EQ(ftdb::analysis::parallel_diameter(g), 0u);
  }
  {
    const Graph g = make_graph(4, {{0, 1}, {2, 3}});  // disconnected
    EXPECT_FALSE(ftdb::analysis::all_pairs_summary(g).connected);
    EXPECT_EQ(ftdb::analysis::parallel_diameter(g), kUnreachable);
    EXPECT_EQ(diameter(g), kUnreachable);
  }
}

TEST(ParallelAllPairs, DiameterAgreesWithSerialSweeps) {
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const Graph g = random_multigraph(rng, 90, nullptr);
    std::uint32_t ref = 0;
    if (g.num_nodes() > 0) {
      bool connected = true;
      for (std::size_t s = 0; s < g.num_nodes(); ++s) {
        const auto dist = queue_bfs_distances(g, static_cast<NodeId>(s));
        for (const std::uint32_t d : dist) {
          if (d == kUnreachable) {
            connected = false;
          } else {
            ref = std::max(ref, d);
          }
        }
      }
      if (!connected) ref = kUnreachable;
    }
    EXPECT_EQ(diameter(g), ref);
    EXPECT_EQ(ftdb::analysis::parallel_diameter(g), ref);
  }
}

// ---------------------------------------------------------------------------
// MultiSourceBfs::run_batch distance output vs the queue BFS oracle
// ---------------------------------------------------------------------------

TEST(MultiSourceBatchDistances, MatchesQueueBfsOnRandomGraphsAndArbitrarySources) {
  std::mt19937_64 rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const Graph g = random_multigraph(rng, 90, nullptr);
    const std::size_t n = g.num_nodes();
    if (n == 0) continue;
    // An arbitrary (non-contiguous, unsorted) batch of distinct sources.
    std::vector<NodeId> all(n);
    for (std::size_t v = 0; v < n; ++v) all[v] = static_cast<NodeId>(v);
    std::shuffle(all.begin(), all.end(), rng);
    const std::size_t width = 1 + rng() % std::min<std::size_t>(n, 64);
    const std::vector<NodeId> sources(all.begin(),
                                      all.begin() + static_cast<std::ptrdiff_t>(width));
    MultiSourceBfs scan(n);
    std::vector<std::uint32_t> dist;
    scan.run_batch(g, sources, &dist);
    ASSERT_EQ(dist.size(), width * n);
    for (std::size_t i = 0; i < width; ++i) {
      const auto ref = queue_bfs_distances(g, sources[i]);
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(dist[i * n + v], ref[v])
            << "trial " << trial << " source " << sources[i] << " node " << v;
      }
    }
  }
}

// The aggregate-only path folds whole masks with popcount; it must return
// exactly what the per-bit distance path and per-source queue sweeps give.
void expect_stats_eq(const MultiSourceBfs::BatchStats& a, const MultiSourceBfs::BatchStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.reachable_pairs, b.reachable_pairs) << where;
  EXPECT_EQ(a.total_distance, b.total_distance) << where;
  EXPECT_EQ(a.max_finite_distance, b.max_finite_distance) << where;
  EXPECT_EQ(a.all_reach_all, b.all_reach_all) << where;
}

MultiSourceBfs::BatchStats queue_batch_stats(const Graph& g, std::span<const NodeId> sources) {
  MultiSourceBfs::BatchStats stats;
  for (const NodeId s : sources) {
    for (const std::uint32_t d : queue_bfs_distances(g, s)) {
      if (d == kUnreachable) {
        stats.all_reach_all = false;
      } else if (d != 0) {
        ++stats.reachable_pairs;
        stats.total_distance += d;
        stats.max_finite_distance = std::max(stats.max_finite_distance, d);
      }
    }
  }
  return stats;
}

TEST(MultiSourceBatchStats, AggregatePathMatchesDistancePathAndQueueBfs) {
  std::mt19937_64 rng(31337);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
    for (int trial = 0; trial < 12; ++trial) {
      // Sparse draws leave the graph disconnected, dense ones usually not.
      GraphBuilder b(n);
      const std::size_t m = rng() % (3 * n + 1);
      for (std::size_t i = 0; i < m; ++i) {
        b.add_edge(static_cast<NodeId>(rng() % n), static_cast<NodeId>(rng() % n));
      }
      const Graph g = b.build();
      std::vector<NodeId> all(n);
      for (std::size_t v = 0; v < n; ++v) all[v] = static_cast<NodeId>(v);
      std::shuffle(all.begin(), all.end(), rng);
      const std::size_t width =
          trial == 0 ? std::min<std::size_t>(n, 64) : 1 + rng() % std::min<std::size_t>(n, 64);
      const std::span<const NodeId> sources(all.data(), width);
      const std::string where =
          "n " + std::to_string(n) + " trial " + std::to_string(trial) + " width " +
          std::to_string(width);

      MultiSourceBfs scan(n);
      std::vector<std::uint32_t> dist;
      const auto with_rows = scan.run_batch(g, sources, &dist);
      const auto aggregate = scan.run_batch(g, sources);
      expect_stats_eq(aggregate, with_rows, where);
      expect_stats_eq(aggregate, queue_batch_stats(g, sources), where);

      for (std::size_t base = 0; base < n; base += MultiSourceBfs::kBatchWidth) {
        const std::size_t w = std::min<std::size_t>(MultiSourceBfs::kBatchWidth, n - base);
        std::vector<NodeId> contiguous(w);
        for (std::size_t i = 0; i < w; ++i) contiguous[i] = static_cast<NodeId>(base + i);
        expect_stats_eq(scan.run(g, static_cast<NodeId>(base)),
                        queue_batch_stats(g, contiguous), where + " base " + std::to_string(base));
      }
    }
  }
}

TEST(MultiSourceBatchDistances, RejectsBadBatches) {
  const Graph g = debruijn_base2(3);
  MultiSourceBfs scan(g.num_nodes());
  EXPECT_THROW(scan.run_batch(g, std::vector<NodeId>{}), std::invalid_argument);
  EXPECT_THROW(scan.run_batch(g, std::vector<NodeId>{0, 0}), std::invalid_argument);
  EXPECT_THROW(scan.run_batch(g, std::vector<NodeId>{99}), std::invalid_argument);
  // A batch rejected after seeding some sources leaves no stale frontier.
  EXPECT_THROW(scan.run_batch(g, std::vector<NodeId>{5, 6, 5}), std::invalid_argument);
  const std::vector<NodeId> next{1, 2};
  expect_stats_eq(scan.run_batch(g, next), MultiSourceBfs(g.num_nodes()).run_batch(g, next),
                  "after a rejected batch");
}

TEST(MultiSourceBatchDistances, ContiguousRunStillMatchesAggregates) {
  // run() is now a thin wrapper over run_batch; its aggregates must agree
  // with per-source sweeps.
  const Graph g = ft_debruijn_base2(5, 3);
  MultiSourceBfs scan(g.num_nodes());
  const auto stats = scan.run(g, 0);
  std::uint64_t pairs = 0;
  std::uint64_t total = 0;
  std::uint32_t ecc = 0;
  for (NodeId s = 0; s < 35; ++s) {
    const auto ref = queue_bfs_distances(g, s);
    for (const std::uint32_t d : ref) {
      if (d == kUnreachable || d == 0) continue;
      ++pairs;
      total += d;
      ecc = std::max(ecc, d);
    }
  }
  EXPECT_EQ(stats.reachable_pairs, pairs);
  EXPECT_EQ(stats.total_distance, total);
  EXPECT_EQ(stats.max_finite_distance, ecc);
  EXPECT_TRUE(stats.all_reach_all);
}

}  // namespace
