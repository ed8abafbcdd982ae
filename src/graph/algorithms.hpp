// Classical graph algorithms used throughout the library: BFS, connectivity,
// diameter/eccentricity, and bipartiteness. All run on the immutable CSR
// `Graph` and are deterministic. Every traversal goes through `BfsWorkspace`
// (flat frontier, epoch-stamped visited array); the overloads taking a
// workspace let callers that issue many BFS runs amortize the scratch state.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/bfs_workspace.hpp"
#include "graph/graph.hpp"

namespace ftdb {

/// Single-source shortest-path distances (hop counts) via BFS.
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source, BfsWorkspace& ws);

/// BFS parent tree: parent[source] == source, parent[unreached] == kInvalidNode.
std::vector<NodeId> bfs_parents(const Graph& g, NodeId source);
std::vector<NodeId> bfs_parents(const Graph& g, NodeId source, BfsWorkspace& ws);

/// Reconstructs a shortest path from `source` to `target`; empty if unreachable,
/// [source] if source == target.
std::vector<NodeId> shortest_path(const Graph& g, NodeId source, NodeId target);

/// Component label per node (labels are 0-based, assigned in node order).
std::vector<std::uint32_t> connected_components(const Graph& g);

std::size_t num_connected_components(const Graph& g);

bool is_connected(const Graph& g);

/// Largest finite eccentricity from `source` (max BFS distance to a reachable node).
std::uint32_t eccentricity(const Graph& g, NodeId source);
std::uint32_t eccentricity(const Graph& g, NodeId source, BfsWorkspace& ws);

/// Exact diameter via the bit-parallel MultiSourceBfs kernel: 64 sources per
/// CSR sweep, stopping at the first batch that proves disconnection.
/// Returns kUnreachable when disconnected. Serial; `analysis::parallel_all_pairs`
/// shards the same batches across threads for the large instances.
std::uint32_t diameter(const Graph& g);

/// True when the graph admits a proper 2-coloring.
bool is_bipartite(const Graph& g);

/// Degree histogram: hist[d] = number of nodes of degree d.
std::vector<std::size_t> degree_histogram(const Graph& g);

/// The library's canonical shortest-path step: the lowest-id neighbor of
/// `cur` that is strictly closer per `dist_of` (i.e. dist_of(w) + 1 ==
/// dist_of(cur)); kInvalidNode when no neighbor qualifies. CSR adjacency is
/// sorted, so "first match" is the minimum id. Every routing backend (BFS
/// next-hop tables, the shape-delta compressed router, the algebraic implicit
/// router) and the embedding metrics' path descent share this one rule —
/// that is what makes their shortest paths hop-for-hop identical. `dist_of`
/// must return an unsigned type whose "unreachable" sentinel is the maximum
/// value, so unreachable neighbors wrap to 0 and never match a positive
/// dist_of(cur).
template <class DistOf>
NodeId canonical_descent_step(const Graph& g, NodeId cur, DistOf&& dist_of) {
  const auto here = dist_of(cur);  // hoisted: dist_of may be an O(h^2) formula
  for (const NodeId w : g.neighbors(cur)) {
    if (dist_of(w) + 1 == here) return w;
  }
  return kInvalidNode;
}

}  // namespace ftdb
