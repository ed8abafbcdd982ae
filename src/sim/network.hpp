// The simulated parallel machine: a physical interconnect (any Graph), an
// optional set of dead nodes, and an optional logical->physical embedding
// produced by the reconfiguration algorithm. This is the substrate on which
// the paper's structural claims are demonstrated operationally: after k
// faults, an FT machine reconfigures and keeps presenting the intact target
// topology, while a bare target machine degrades.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "ft/reconfigure.hpp"

namespace ftdb::sim {

/// A machine whose nodes may be faulty. Logical node x lives at physical node
/// to_physical[x]; with no reconfiguration the mapping is the identity.
struct Machine {
  Graph physical;                     // interconnect as built
  std::vector<bool> dead;             // physical fault map
  std::vector<NodeId> to_physical;    // logical -> physical (injective)
  std::vector<NodeId> to_logical;     // physical -> logical (kInvalidNode = none/spare)

  std::size_t num_logical() const { return to_physical.size(); }

  /// Healthy machine presenting `topology` directly (identity mapping).
  static Machine direct(Graph topology);

  /// Bare target machine with faults — the degraded baseline of experiment
  /// PERF2. Dead nodes keep their ids; traffic must route around them.
  static Machine direct_with_faults(Graph topology, const FaultSet& faults);

  /// Reconfigured FT machine: logical node x of the target lives at
  /// phi[x] in the fault-tolerant graph.
  static Machine reconfigured(Graph ft_graph, const FaultSet& faults,
                              std::size_t logical_nodes);

  /// True when logical nodes u, v are joined by a healthy physical link.
  bool logical_link_up(NodeId u, NodeId v) const;

  /// The logical connectivity actually available: edges between live logical
  /// nodes whose physical images are adjacent. For a reconfigured FT machine
  /// carrying target G this equals G restricted to nothing — i.e. all of G.
  Graph live_logical_graph(const Graph& target) const;

  /// True when every edge of `target` is a live logical link, i.e. when
  /// live_logical_graph(target) would equal `target` itself. O(E) link
  /// checks, no allocation — the edge-for-edge form of the dilation-1 claim.
  bool presents(const Graph& target) const;
};

/// Diameter of machine.live_logical_graph(target), given
/// target_diameter == diameter(target). Exact without a BFS when the machine
/// presents the target (the live graph *is* the target); otherwise the live
/// graph is built and swept.
std::uint32_t live_logical_diameter(const Machine& machine, const Graph& target,
                                    std::uint32_t target_diameter);

/// Edge faults are handled in the paper by declaring one incident node faulty
/// ("a node that is incident to the faulty edge [is viewed] as being
/// faulty"). Greedy minimum-cover choice: repeatedly take the endpoint
/// covering the most remaining faulty edges.
std::vector<NodeId> edge_faults_to_node_faults(const Graph& g, const std::vector<Edge>& bad_edges);

}  // namespace ftdb::sim
