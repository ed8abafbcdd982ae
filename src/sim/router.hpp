// Unified routing engine for the simulated machines.
//
// Every consumer of next-hop routing (the packet engine, reconfigured-machine
// routing, the campaign stretch metric, the serving layer, the routing
// benches) talks to one `Router` interface, behind which three
// interchangeable backends implement the *same* canonical policy — shortest
// paths stepped through the lowest-id closer neighbor
// (graph/algorithms.hpp:canonical_descent_step). Because the policy is
// shared, the backends are hop-for-hop identical wherever they are all
// applicable, and differ only in cost:
//
//  * ImplicitRouter   — O(1) memory, O(h^2) next-hop. Pure label algebra for
//                       de Bruijn B_{m,h} and shuffle-exchange SE_h shapes
//                       (exact undirected distances from topology/debruijn
//                       and topology/shuffle_exchange). Valid on the healthy
//                       machines and, composed with the monotone relabeling
//                       of ft/reconfigure, on any reconfigured machine whose
//                       live logical graph came out dilation-1 — routing in
//                       logical space is exactly what survives
//                       reconfiguration unchanged. This is what lets traffic
//                       simulation and campaign sweeps run at N = 2^18..2^20,
//                       where a table slab would be gigabytes.
//  * CompressedRouter — shape-delta encoding for a graph that sits inside a
//                       de Bruijn / shuffle-exchange reference shape (every
//                       adjacency a subset of the algebraic one — the
//                       degraded-machine case): all destinations share the
//                       reference algebra and only the (dest, node) pairs
//                       whose exact BFS distance deviates from it are stored.
//                       O(N + E + exceptions) memory, with exceptions measured
//                       at a few * f * h per node for f faults (0 on a healthy
//                       shape), and incremental fault/repair patching.
//  * TableRouter      — O(N^2) memory, O(1) next-hop. A per-destination BFS
//                       slab over any graph, the general fallback and the
//                       oracle the others are tested against.
//
// make_router() is a fixed policy with no options. Below kAlgebraMinNodes
// (2^12) every graph gets the table: the slab is cheap there and its O(1)
// lookup beats either backend's label algebra. At or above it, a graph equal
// to its de Bruijn / shuffle-exchange shape gets the implicit router, a
// proper subgraph of one (a degraded machine) the compressed router, and
// anything else the table.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "topology/debruijn.hpp"

namespace ftdb::sim {

enum class RouterBackend { Table, Compressed, Implicit };

const char* router_backend_name(RouterBackend backend);

/// Caller-carried memo for one in-flight packet's routing state, filled by
/// the hinted route_many overload. Self-validating: a hint is consulted only
/// when its (dest, node) matches the query, so zero-initialized or stale
/// hints are always safe — they just cost a fresh scan. Callers that keep
/// one RouteHint per packet across cycles turn the implicit backend's
/// per-hop work into a single adjacent-offset check (the witness, distance
/// and optimal-offset mask ride along instead of round-tripping through the
/// thread-local memo cache).
struct RouteHint {
  NodeId dest = kInvalidNode;
  NodeId node = kInvalidNode;
  std::uint32_t dist = 0;
  std::int32_t wit = 0;
  std::uint64_t opt = 0;
};

/// The routing interface. All queries are in the logical node space of the
/// graph the router was built for; `Machine::to_physical` composes the
/// physical relabeling on top (see sim/reconfigured_routing.hpp).
class Router {
 public:
  virtual ~Router() = default;

  virtual RouterBackend backend() const = 0;
  virtual std::size_t num_nodes() const = 0;

  /// Canonical next hop from `node` towards `dest`: the lowest-id neighbor
  /// strictly closer to dest. Returns `dest` when node == dest and
  /// kInvalidNode when dest is unreachable from node.
  virtual NodeId next_hop(NodeId dest, NodeId node) const = 0;

  /// Hop count, or uint32(-1) when unreachable (the BFS convention).
  virtual std::uint32_t distance(NodeId dest, NodeId node) const = 0;

  /// Batched next hops: out[i] = next_hop(dests[i], nodes[i]), hop-for-hop
  /// identical to the scalar loop on every backend (that loop *is* the
  /// default). ImplicitRouter overrides it with witness-reusing incremental
  /// scans plus a thread-local memo cache, amortizing per-lookup setup over
  /// thousands of in-flight packets. Spans must have equal length (throws
  /// std::invalid_argument otherwise).
  virtual void route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                          std::span<NodeId> out) const;

  /// route_many with caller-carried per-packet state: hints[i] is consulted
  /// when it matches (dests[i], nodes[i]) and rewritten with the state of
  /// the answered hop, so re-presenting the same packet one hop later skips
  /// the fresh scan entirely. Results are hop-for-hop identical to the
  /// hint-less overload; backends without incremental state ignore the
  /// hints. `hints` must match the query length.
  virtual void route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                          std::span<NodeId> out, std::span<RouteHint> hints) const;

  /// Batched distances: out[i] = distance(dests[i], nodes[i]); same contract
  /// and override story as route_many.
  virtual void distance_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                             std::span<std::uint32_t> out) const;

  virtual bool reachable(NodeId dest, NodeId node) const {
    return distance(dest, node) != static_cast<std::uint32_t>(-1);
  }

  /// Heap bytes owned by the backend — the memory story the backends trade
  /// against lookup latency (0 for the implicit backend).
  virtual std::size_t memory_bytes() const = 0;

  /// Full canonical path node -> dest (inclusive); empty when unreachable.
  /// Identical across backends by the shared policy (ImplicitRouter walks it
  /// with the witness-chained stepper instead of per-hop full scans).
  virtual std::vector<NodeId> path(NodeId from, NodeId dest) const;
};

/// Dense next-hop tables: next_hop(dest, node) is the canonical hop (the
/// lowest-id neighbor of `node` one step closer to `dest`), or kInvalidNode
/// when unreachable. Memory is N^2; intended for N up to a few thousand.
/// Distances live in a uint16 slab (half the N^2 footprint of the next-hop
/// table): hop counts on these machines are tiny, and the constructor throws
/// std::length_error if a graph ever exceeds 65534 hops rather than wrapping.
class TableRouter final : public Router {
 public:
  explicit TableRouter(const Graph& g);

  RouterBackend backend() const override { return RouterBackend::Table; }
  std::size_t num_nodes() const override { return n_; }
  NodeId next_hop(NodeId dest, NodeId node) const override { return table_[index(dest, node)]; }
  /// Hop count, or uint32(-1) when unreachable (the sentinel is widened from
  /// the internal uint16).
  std::uint32_t distance(NodeId dest, NodeId node) const override {
    const std::uint16_t d = dist_[index(dest, node)];
    return d == kNoPath ? static_cast<std::uint32_t>(-1) : d;
  }
  bool reachable(NodeId dest, NodeId node) const override {
    return dist_[index(dest, node)] != kNoPath;
  }
  std::size_t memory_bytes() const override {
    return n_ * n_ * (sizeof(NodeId) + sizeof(std::uint16_t));
  }

 private:
  static constexpr std::uint16_t kNoPath = 0xffff;

  std::size_t index(NodeId dest, NodeId node) const {
    return static_cast<std::size_t>(dest) * n_ + node;
  }

  std::size_t n_;
  std::vector<NodeId> table_;
  std::vector<std::uint16_t> dist_;
};

/// Exact canonical routing with destination-class sharing by shape-delta
/// encoding: the graph's adjacencies are all subsets of a reference B_{m,h} /
/// SE_h (h >= 2) on the same node count. Every destination shares the
/// reference's algebraic distance; only the pairs whose exact BFS distance
/// deviates (fault detours, unreachable rows) are stored in a per-node
/// exception table. Correctness never depends on the reference — exceptions
/// record the exact value wherever the algebra is wrong.
///
/// The router also supports *incremental* maintenance for the
/// degraded-machine lifecycle (reference shape minus a set of failed nodes):
/// `apply_fault` / `retract_fault` patch the exception table in place by
/// recomputing only the (dest, node) pairs whose exact distance actually
/// changed (a Ramalingam–Reps style affected-set sweep per destination),
/// instead of re-running the per-destination BFS rebuild. The patched state is
/// canonical — bit-identical to a from-scratch build over the same degraded
/// graph — which is what the serving layer's equivalence oracle asserts.
class CompressedRouter final : public Router {
 public:
  /// Throws std::invalid_argument when `g` sits inside no reference shape. A
  /// graph that *equals* its reference shape (a healthy machine) skips the
  /// per-destination BFS scans: it has no exceptions by definition.
  explicit CompressedRouter(const Graph& g);

  RouterBackend backend() const override { return RouterBackend::Compressed; }
  std::size_t num_nodes() const override { return n_; }
  NodeId next_hop(NodeId dest, NodeId node) const override;
  /// O(log exceptions) lookup, else the reference algebra.
  std::uint32_t distance(NodeId dest, NodeId node) const override;
  bool reachable(NodeId dest, NodeId node) const override {
    return distance(dest, node) != static_cast<std::uint32_t>(-1);
  }
  std::size_t memory_bytes() const override;

  std::size_t num_exceptions() const { return exception_dest_.size(); }

  /// Observable size/shape facts, so the serving layer and the benches can
  /// assert the ~f*h per-node exception-growth bound instead of guessing.
  struct Stats {
    std::size_t exception_entries = 0;  // (node, dest) pairs stored
    std::size_t bytes = 0;              // == memory_bytes()
    const char* reference = "";         // "debruijn" | "shuffle_exchange"
    std::uint64_t reference_base = 0;   // m of the reference B_{m,h} (0 for SE)
    unsigned reference_digits = 0;      // h of the reference shape
    std::size_t tracked_faults = 0;     // faults applied through apply_fault
    std::uint64_t state_hash = 0;       // FNV-1a over the exception table
    /// Reference-algebra evaluations (stepper probes and scans, one per
    /// (dest, node) pair) done by the last apply_fault / retract_fault; 0
    /// before the first patch. Work accounting only: not in state_hash.
    std::uint64_t patch_evaluations = 0;
  };
  Stats stats() const;

  /// Incrementally retires node `v`: removes its edges from the routed graph
  /// and patches the exception table so the router is exactly the router of
  /// the degraded graph. Throws std::invalid_argument when `v` is out of
  /// range or already retired.
  ///
  /// Every old distance is the stored exception, else the reference
  /// distance. The exception table is read through a per-node cursor that
  /// only moves forward with the destination loop. Reference distances of
  /// the nodes within three hops of v (at most 64 beyond the first ring)
  /// come from one bit-parallel BFS of the shape rooted at all of them (the
  /// shape is undirected, so a root's row is its distance to every
  /// destination). v's old BFS row gives old_v per destination and each
  /// node's hop count from v. A node whose every shortest path runs through
  /// v sits at old_v plus that hop count, which settles most cascade
  /// neighbors outright. The rest are reference-stepper probe_adjacent()
  /// calls from the cascade node, capped to the one question asked: "one hop
  /// closer?" for a live parent, "same level or child?" for a neighbor of an
  /// affected node. New distances only grow, so every changed pair is an
  /// exception and the merge evaluates nothing. Cost is O(ball * (N + E) /
  /// 64 + changed pairs * deg^2) plus the probes, versus the O(N * (N + E))
  /// rebuild.
  void apply_fault(NodeId v);

  /// Reverses `apply_fault(v)`: restores v's reference-shape edges towards
  /// every non-retired neighbor and retracts the now-stale exceptions.
  /// Throws std::invalid_argument when `v` is not currently retired.
  ///
  /// Relaxes outward from v per destination: a BFS, since every edge weighs
  /// one and v is the only source. A node without an old exception already
  /// sits at its reference distance, the floor for any subgraph of the
  /// shape, so it cannot improve: the relaxation follows the exception table
  /// alone and never evaluates the algebra for it. Whether an improved node's
  /// new distance is still an exception comes from reference-shape BFS rows
  /// of the nodes within two hops of v, from its BFS parent (a parent still
  /// below its new distance bounds the child below too), or else from one
  /// probe_adjacent() from the parent. The row of destination v compares one
  /// BFS of the restored graph against the reference row of v.
  void retract_fault(NodeId v);

  /// Faults applied through apply_fault and not yet retracted, sorted.
  /// (Nodes that were already isolated in the constructor's graph are adopted
  /// as retired, so a router built from a degraded graph is repairable too.)
  const std::vector<NodeId>& tracked_faults() const { return faulty_; }

 private:
  enum class Reference { DeBruijn, ShuffleExchange };

  /// DistDelta::dist for a pair whose new distance equals the reference
  /// algebra's: the merge erases its entry. (No real distance reaches it: it
  /// would take a path of 2^32 - 1 nodes.)
  static constexpr std::uint32_t kAtReference = 0xFFFFFFFEu;

  struct DistDelta {
    NodeId node;
    NodeId dest;
    std::uint32_t dist;  // new exact distance (may be unreachable), or kAtReference
  };

  std::uint32_t reference_distance(NodeId dest, NodeId node) const;
  void reference_neighbors(NodeId x, std::vector<NodeId>& out) const;
  template <class Ops>
  void build_shape_delta(const Ops& ops, const Graph& g);
  /// The patch loops: every changed (node, dest) pair, destination-major.
  /// repair_deltas also restores v's edges in graph_ first.
  template <class Ops>
  std::vector<DistDelta> fault_deltas(const Ops& ops, NodeId v);
  template <class Ops>
  std::vector<DistDelta> repair_deltas(const Ops& ops, NodeId v);
  void merge_deltas(const std::vector<DistDelta>& deltas);
  void rebuild_graph(NodeId v, const std::vector<NodeId>& add_neighbors, bool removing);

  std::size_t n_ = 0;
  Reference reference_ = Reference::DeBruijn;
  DeBruijnParams db_{};
  unsigned se_h_ = 0;

  // The graph (for the canonical descent) plus the per-node exception CSR,
  // sorted by destination.
  Graph graph_;
  std::vector<NodeId> faulty_;  // nodes retired via apply_fault, sorted
  std::uint64_t patch_evaluations_ = 0;  // see Stats::patch_evaluations
  std::vector<std::size_t> exception_offsets_;
  std::vector<NodeId> exception_dest_;
  std::vector<std::uint32_t> exception_dist_;
};

/// O(1)-memory algebraic routing for de Bruijn / shuffle-exchange shapes:
/// distances come from the exact label formulas, next hops from probing the
/// (sorted) algebraic neighbors through the same canonical rule. The probes
/// run on the incremental distance steppers (topology/*): a success-exit
/// capped scan per neighbor, hinted by the current node's alignment witness,
/// instead of a fresh O(h^2) scan each — and the batched route_many /
/// distance_many / path overrides additionally carry the witness across hops
/// through a small thread-local memo cache. The cache is process-wide
/// per-thread scratch shared by every ImplicitRouter (epoch-stamped with a
/// never-reused per-router id), not router state: memory_bytes() stays 0,
/// and route_cache_bytes() reports the fixed per-thread slab.
class ImplicitRouter final : public Router {
 public:
  static ImplicitRouter for_debruijn(const DeBruijnParams& params);
  static ImplicitRouter for_shuffle_exchange(unsigned h);

  RouterBackend backend() const override { return RouterBackend::Implicit; }
  std::size_t num_nodes() const override { return static_cast<std::size_t>(n_); }
  NodeId next_hop(NodeId dest, NodeId node) const override;
  std::uint32_t distance(NodeId dest, NodeId node) const override;
  void route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                  std::span<NodeId> out) const override;
  void route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                  std::span<NodeId> out, std::span<RouteHint> hints) const override;
  void distance_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                     std::span<std::uint32_t> out) const override;
  std::vector<NodeId> path(NodeId from, NodeId dest) const override;
  bool reachable(NodeId dest, NodeId node) const override {
    return node < n_ && dest < n_;  // both shapes are connected
  }
  std::size_t memory_bytes() const override { return 0; }

  /// Fixed size of the per-thread memo cache slab backing the batched
  /// overrides (reported separately from memory_bytes(): the slab is shared
  /// process scratch, not owned by any router instance).
  static std::size_t route_cache_bytes();

 private:
  enum class Shape { DeBruijn, ShuffleExchange };

  ImplicitRouter(Shape shape, DeBruijnParams db, unsigned se_h, std::uint64_t n);

  NodeId next_hop_wide(NodeId dest, NodeId node) const;

  Shape shape_;
  DeBruijnParams db_{};
  unsigned se_h_ = 0;
  std::uint64_t n_ = 0;
  std::uint32_t cache_id_ = 0;  // memo-cache epoch stamp, unique per router
};

/// Node count from which make_router() routes a de Bruijn / shuffle-exchange
/// graph by its label algebra instead of the table (whose slab is 96 MiB at
/// 2^12 nodes).
inline constexpr std::size_t kAlgebraMinNodes = std::size_t{1} << 12;

/// Builds the router the fixed policy picks for `g`: the table below
/// kAlgebraMinNodes; at or above it, the implicit router for a graph equal to
/// its B_{m,h} / SE_h shape, the compressed router for a proper subgraph of
/// one, and the table for anything else.
std::unique_ptr<Router> make_router(const Graph& g);

}  // namespace ftdb::sim
