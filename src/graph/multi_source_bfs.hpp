// Bit-parallel multi-source BFS kernel.
//
// Processes up to 64 BFS sources simultaneously, one bit per source: a
// level-synchronous traversal propagates all frontiers at once with
// word-wide ORs over the CSR, so each adjacency list is walked once per
// batch per level instead of once per source. On the small-diameter
// expander-like graphs of the paper this turns V scalar traversals into
// ~V/64 word traversals — the core of both the serial `diameter()` and the
// threaded `analysis::all_pairs_summary` engine (batches are independent,
// so callers may shard them across threads; one kernel instance per thread).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ftdb {

class MultiSourceBfs {
 public:
  static constexpr std::size_t kBatchWidth = 64;

  /// Aggregates over one batch of sources.
  struct BatchStats {
    std::uint64_t reachable_pairs = 0;      ///< ordered (source, other) pairs reached
    std::uint64_t total_distance = 0;       ///< sum of finite distances from the sources
    std::uint32_t max_finite_distance = 0;  ///< max eccentricity over the batch
    bool all_reach_all = true;              ///< every source reached every node
  };

  explicit MultiSourceBfs(std::size_t num_nodes)
      : visited_(num_nodes, 0), frontier_bits_(num_nodes, 0), next_bits_(num_nodes, 0) {}

  /// Runs the batch of sources [base, min(base + kBatchWidth, num_nodes)).
  BatchStats run(const Graph& g, NodeId base);

  /// Runs an explicit batch of up to kBatchWidth *distinct* sources
  /// (sources[i] rides bit i) and, when `distances` is non-null, writes the
  /// full distance vector of every source in the one pass:
  /// (*distances)[i * num_nodes + v] = d(sources[i], v), kUnreachable when
  /// unreached. This is the batch counterpart of BfsWorkspace::distances —
  /// callers that need whole rows of the distance matrix (route-stretch
  /// audits, embedding metrics) get 64 rows per CSR sweep instead of one.
  /// The aggregates cost one popcount per fresh mask either way; only the
  /// rows take one step per (source, node) pair.
  BatchStats run_batch(const Graph& g, std::span<const NodeId> sources,
                       std::vector<std::uint32_t>* distances = nullptr);

 private:
  std::vector<std::uint64_t> visited_;        // mask of sources that reached v
  std::vector<std::uint64_t> frontier_bits_;  // masks for the current frontier
  std::vector<std::uint64_t> next_bits_;      // masks accumulated for the next level
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_frontier_;
  std::vector<NodeId> touched_;
};

}  // namespace ftdb
