#include "graph/multi_source_bfs.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "graph/bfs_workspace.hpp"  // kUnreachable, the distance sentinel

namespace ftdb {

MultiSourceBfs::BatchStats MultiSourceBfs::run(const Graph& g, NodeId base) {
  const std::size_t n = g.num_nodes();
  const unsigned width = static_cast<unsigned>(std::min<std::size_t>(kBatchWidth, n - base));
  NodeId sources[kBatchWidth];
  for (unsigned i = 0; i < width; ++i) sources[i] = base + i;
  return run_batch(g, {sources, width});
}

MultiSourceBfs::BatchStats MultiSourceBfs::run_batch(const Graph& g,
                                                     std::span<const NodeId> sources,
                                                     std::vector<std::uint32_t>* distances) {
  const std::size_t n = g.num_nodes();
  const unsigned width = static_cast<unsigned>(sources.size());
  if (width == 0 || width > kBatchWidth) {
    throw std::invalid_argument("MultiSourceBfs: batch must hold 1..64 sources");
  }

  // `next_bits_` is zero outside the level loop by invariant (every touched
  // slot is reset before the next level), so only `visited_` needs clearing.
  std::fill(visited_.begin(), visited_.end(), 0);
  if (distances != nullptr) distances->assign(width * n, kUnreachable);
  frontier_.clear();
  for (unsigned i = 0; i < width; ++i) {
    const NodeId s = sources[i];
    if (s >= n || visited_[s] != 0) {
      throw std::invalid_argument("MultiSourceBfs: sources must be distinct and in range");
    }
    visited_[s] = std::uint64_t{1} << i;
    frontier_bits_[s] = std::uint64_t{1} << i;
    frontier_.push_back(s);
    if (distances != nullptr) (*distances)[i * n + s] = 0;
  }

  // The aggregates fold in one popcount per fresh mask. A source's
  // eccentricity is the last level that reaches anything new for it, so the
  // batch maximum is simply the last productive level. Only distance rows
  // need the per-(source, node) bit loop.
  BatchStats stats;
  std::uint32_t level = 0;
  while (!frontier_.empty()) {
    ++level;
    touched_.clear();
    for (const NodeId v : frontier_) {
      const std::uint64_t m = frontier_bits_[v];
      for (const NodeId u : g.neighbors(v)) {
        if (next_bits_[u] == 0) touched_.push_back(u);
        next_bits_[u] |= m;
      }
    }
    next_frontier_.clear();
    for (const NodeId u : touched_) {
      std::uint64_t fresh = next_bits_[u] & ~visited_[u];
      next_bits_[u] = 0;
      if (fresh == 0) continue;
      visited_[u] |= fresh;
      frontier_bits_[u] = fresh;
      next_frontier_.push_back(u);
      const auto c = static_cast<std::uint64_t>(std::popcount(fresh));
      stats.reachable_pairs += c;
      stats.total_distance += c * level;
      stats.max_finite_distance = level;
      if (distances == nullptr) continue;
      for (; fresh != 0; fresh &= fresh - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(fresh));
        (*distances)[b * n + u] = level;
      }
    }
    frontier_.swap(next_frontier_);
  }
  // Each source reaches at most n - 1 other nodes, so the pair count hits
  // width * (n - 1) exactly when every source reached every node.
  stats.all_reach_all = stats.reachable_pairs == std::uint64_t{width} * (n - 1);
  return stats;
}

}  // namespace ftdb
