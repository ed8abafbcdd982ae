#include "sim/network.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace ftdb::sim {

Machine Machine::direct(Graph topology) {
  Machine m;
  const std::size_t n = topology.num_nodes();
  m.physical = std::move(topology);
  m.dead.assign(n, false);
  m.to_physical.resize(n);
  m.to_logical.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    m.to_physical[v] = static_cast<NodeId>(v);
    m.to_logical[v] = static_cast<NodeId>(v);
  }
  return m;
}

Machine Machine::direct_with_faults(Graph topology, const FaultSet& faults) {
  Machine m = direct(std::move(topology));
  if (faults.universe() != m.physical.num_nodes()) {
    throw std::invalid_argument("direct_with_faults: universe mismatch");
  }
  for (NodeId f : faults.nodes()) m.dead[f] = true;
  return m;
}

Machine Machine::reconfigured(Graph ft_graph, const FaultSet& faults,
                              std::size_t logical_nodes) {
  if (faults.universe() != ft_graph.num_nodes()) {
    throw std::invalid_argument("reconfigured: universe mismatch");
  }
  const std::vector<NodeId> phi = monotone_embedding(faults);
  if (phi.size() < logical_nodes) {
    throw std::invalid_argument("reconfigured: too many faults for logical size");
  }
  Machine m;
  const std::size_t p = ft_graph.num_nodes();
  m.physical = std::move(ft_graph);
  m.dead.assign(p, false);
  for (NodeId f : faults.nodes()) m.dead[f] = true;
  m.to_physical.assign(phi.begin(), phi.begin() + static_cast<std::ptrdiff_t>(logical_nodes));
  m.to_logical.assign(p, kInvalidNode);
  for (std::size_t x = 0; x < logical_nodes; ++x) m.to_logical[m.to_physical[x]] = static_cast<NodeId>(x);
  return m;
}

bool Machine::logical_link_up(NodeId u, NodeId v) const {
  const NodeId pu = to_physical[u];
  const NodeId pv = to_physical[v];
  return !dead[pu] && !dead[pv] && physical.has_edge(pu, pv);
}

Graph Machine::live_logical_graph(const Graph& target) const {
  GraphBuilder builder(target.num_nodes());
  for (const Edge& e : target.edges()) {
    if (e.u < num_logical() && e.v < num_logical() && logical_link_up(e.u, e.v)) {
      builder.add_edge(e.u, e.v);
    }
  }
  return builder.build();
}

bool Machine::presents(const Graph& target) const {
  const std::size_t n = target.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : target.neighbors(u)) {
      if (v <= u) continue;  // each undirected edge once
      if (v >= num_logical() || !logical_link_up(u, v)) return false;
    }
  }
  return true;
}

std::uint32_t live_logical_diameter(const Machine& machine, const Graph& target,
                                    std::uint32_t target_diameter) {
  if (machine.presents(target)) return target_diameter;
  return diameter(machine.live_logical_graph(target));
}

std::vector<NodeId> edge_faults_to_node_faults(const Graph& g,
                                               const std::vector<Edge>& bad_edges) {
  (void)g;
  std::vector<Edge> remaining = bad_edges;
  std::vector<NodeId> chosen;
  while (!remaining.empty()) {
    std::map<NodeId, std::size_t> cover;
    for (const Edge& e : remaining) {
      ++cover[e.u];
      ++cover[e.v];
    }
    NodeId best = remaining.front().u;
    std::size_t best_count = 0;
    for (const auto& [node, count] : cover) {
      if (count > best_count) {
        best = node;
        best_count = count;
      }
    }
    chosen.push_back(best);
    remaining.erase(std::remove_if(remaining.begin(), remaining.end(),
                                   [&](const Edge& e) { return e.u == best || e.v == best; }),
                    remaining.end());
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace ftdb::sim
