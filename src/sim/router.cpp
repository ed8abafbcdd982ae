#include "sim/router.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {

const char* router_backend_name(RouterBackend backend) {
  switch (backend) {
    case RouterBackend::Table: return "table";
    case RouterBackend::Compressed: return "compressed";
    case RouterBackend::Implicit: return "implicit";
  }
  return "?";
}

std::vector<NodeId> Router::path(NodeId from, NodeId dest) const {
  if (!reachable(dest, from)) return {};
  std::vector<NodeId> route{from};
  NodeId cur = from;
  while (cur != dest) {
    cur = next_hop(dest, cur);
    route.push_back(cur);
  }
  return route;
}

namespace {

void check_batch_spans(std::size_t dests, std::size_t nodes, std::size_t out) {
  if (dests != nodes || dests != out) {
    throw std::invalid_argument("Router batch query: span sizes differ");
  }
}

}  // namespace

void Router::route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                        std::span<NodeId> out) const {
  check_batch_spans(dests.size(), nodes.size(), out.size());
  for (std::size_t i = 0; i < dests.size(); ++i) out[i] = next_hop(dests[i], nodes[i]);
}

void Router::route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                        std::span<NodeId> out, std::span<RouteHint> hints) const {
  check_batch_spans(dests.size(), nodes.size(), out.size());
  if (hints.size() != dests.size()) {
    throw std::invalid_argument("Router batch query: hint span size differs");
  }
  route_many(dests, nodes, out);  // backends without incremental state: no-op hints
}

void Router::distance_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                           std::span<std::uint32_t> out) const {
  check_batch_spans(dests.size(), nodes.size(), out.size());
  for (std::size_t i = 0; i < dests.size(); ++i) out[i] = distance(dests[i], nodes[i]);
}

// --- TableRouter -------------------------------------------------------------

TableRouter::TableRouter(const Graph& g)
    : n_(g.num_nodes()), table_(n_ * n_, kInvalidNode), dist_(n_ * n_, kNoPath) {
  // BFS from each destination, writing straight into this destination's slab
  // row, then one canonical-descent pass assigning every node its lowest-id
  // closer neighbor.
  std::vector<NodeId> cur, next;
  for (std::size_t dest = 0; dest < n_; ++dest) {
    const std::size_t base = dest * n_;
    dist_[base + dest] = 0;
    table_[base + dest] = static_cast<NodeId>(dest);
    cur.assign(1, static_cast<NodeId>(dest));
    std::uint16_t level = 0;
    while (!cur.empty()) {
      if (level == kNoPath - 1) {
        throw std::length_error("TableRouter: distance exceeds the uint16 slab");
      }
      ++level;
      next.clear();
      for (const NodeId u : cur) {
        for (const NodeId v : g.neighbors(u)) {
          if (dist_[base + v] == kNoPath) {
            dist_[base + v] = level;
            next.push_back(v);
          }
        }
      }
      cur.swap(next);
    }
    const auto dist_of = [&](NodeId w) { return static_cast<std::uint32_t>(dist_[base + w]); };
    for (std::size_t v = 0; v < n_; ++v) {
      if (v == dest || dist_[base + v] == kNoPath) continue;
      table_[base + v] = canonical_descent_step(g, static_cast<NodeId>(v), dist_of);
    }
  }
}

// --- CompressedRouter --------------------------------------------------------

namespace {

/// Reusable dest-rooted BFS into `row` (kUnreachable sentinel). The neighbor
/// source is a functor so the same sweep serves the graph's CSR and the
/// algebraic reference shapes.
template <class ForEachNeighbor>
void bfs_row(NodeId dest, std::span<std::uint32_t> row, std::vector<NodeId>& cur,
             std::vector<NodeId>& next, ForEachNeighbor&& for_each_neighbor) {
  std::fill(row.begin(), row.end(), kUnreachable);
  row[dest] = 0;
  cur.assign(1, dest);
  std::uint32_t level = 0;
  while (!cur.empty()) {
    ++level;
    next.clear();
    for (const NodeId u : cur) {
      for_each_neighbor(u, [&](NodeId v) {
        if (row[v] == kUnreachable) {
          row[v] = level;
          next.push_back(v);
        }
      });
    }
    cur.swap(next);
  }
}

/// bfs_row over the graph's own adjacency.
void bfs_row_graph(const Graph& g, NodeId dest, std::span<std::uint32_t> row,
                   std::vector<NodeId>& cur, std::vector<NodeId>& next) {
  bfs_row(dest, row, cur, next, [&](NodeId u, auto&& visit) {
    for (const NodeId v : g.neighbors(u)) visit(v);
  });
}

/// How a graph relates to a reference shape's algebraic adjacency.
enum class ShapeFit { None, Subgraph, Equal };

/// Subgraph when every adjacency list of g is a subset of the shape's
/// algebraic one — the condition under which the shape's distances are a
/// sharable reference (deviations can only be sparse detours around the
/// holes) — and Equal when every list matches exactly.
template <class NeighborsOf>
ShapeFit fit_to_shape(const Graph& g, NeighborsOf&& neighbors_of) {
  std::vector<NodeId> expected;
  bool equal = true;
  for (std::size_t x = 0; x < g.num_nodes(); ++x) {
    neighbors_of(static_cast<NodeId>(x), expected);
    const auto actual = g.neighbors(static_cast<NodeId>(x));
    if (!std::includes(expected.begin(), expected.end(), actual.begin(), actual.end())) {
      return ShapeFit::None;
    }
    equal = equal && expected.size() == actual.size();
  }
  return equal ? ShapeFit::Equal : ShapeFit::Subgraph;
}

/// The de Bruijn / shuffle-exchange shape a graph sits inside, if any.
struct ReferenceShape {
  std::optional<DeBruijnParams> debruijn;  // B_{m,h} containing g
  unsigned se_h = 0;                       // else SE_{se_h} containing g (0 = none)
  bool equal = false;                      // g is the shape itself, not a proper subgraph

  bool found() const { return debruijn.has_value() || se_h != 0; }
};

/// Reference-shape search: the largest-h (m, h >= 2) factorization of N whose
/// B_{m,h} contains g, else SE_h. h = 1 (the complete graph) is excluded —
/// every graph embeds in K_N, but K_N's algebra shares nothing useful.
ReferenceShape find_reference_shape(const Graph& g) {
  const std::uint64_t n = g.num_nodes();
  ReferenceShape shape;
  for (unsigned h = 63; h >= 2; --h) {
    const std::uint64_t m = debruijn_exact_root(n, h);
    if (m == 0) continue;
    const DeBruijnParams params{.base = m, .digits = h};
    const ShapeFit fit = fit_to_shape(
        g, [&](NodeId x, std::vector<NodeId>& out) { debruijn_neighbors(params, x, out); });
    if (fit != ShapeFit::None) {
      shape.debruijn = params;
      shape.equal = fit == ShapeFit::Equal;
      return shape;
    }
  }
  if (n >= 4 && (n & (n - 1)) == 0) {
    const auto h = static_cast<unsigned>(std::countr_zero(n));
    const ShapeFit fit = fit_to_shape(g, [&](NodeId x, std::vector<NodeId>& out) {
      shuffle_exchange_neighbors(h, x, out);
    });
    if (fit != ShapeFit::None) {
      shape.se_h = h;
      shape.equal = fit == ShapeFit::Equal;
    }
  }
  return shape;
}

// Per-shape plumbing shared by the compressed router's reference algebra and
// the implicit backend: the incremental distance stepper, plus the algebraic
// adjacency as an allocation-free visitor (duplicates and self-loops are
// harmless to the BFS sweeps that use it).
struct DebruijnShapeOps {
  using Stepper = DebruijnDistanceStepper;
  DeBruijnParams params;
  std::uint64_t n;     // m^h
  std::uint64_t high;  // m^{h-1}
  Stepper make(NodeId dest) const { return Stepper(params, dest); }
  template <class Visit>
  void for_each_neighbor(NodeId x, Visit&& visit) const {
    const std::uint64_t slid = (static_cast<std::uint64_t>(x) * params.base) % n;
    const std::uint64_t down = x / params.base;
    for (std::uint64_t r = 0; r < params.base; ++r) {
      const std::uint64_t left = slid + r;
      visit(static_cast<NodeId>(left >= n ? left - n : left));
      visit(static_cast<NodeId>(r * high + down));
    }
  }
};

struct ShuffleExchangeShapeOps {
  using Stepper = ShuffleExchangeDistanceStepper;
  unsigned h;
  Stepper make(NodeId dest) const { return Stepper(h, dest); }
  template <class Visit>
  void for_each_neighbor(NodeId x, Visit&& visit) const {
    visit(se_exchange(x));
    visit(se_shuffle(x, h));
    visit(se_unshuffle(x, h));
  }
};

/// `n` is the node count m^h of `params` (callers already hold it).
DebruijnShapeOps debruijn_ops(const DeBruijnParams& params, std::uint64_t n) {
  return {params, n, n / params.base};
}

/// Reference-shape BFS rows rooted at every node of a small ball around a
/// patched node. The shape is undirected, so ref(x, d) is the reference
/// distance(d, x) for every destination d, and the patch loop reads it as an
/// array instead of evaluating the label algebra. The ball is every node
/// within `radius` hops of the center in the patched graph (a subgraph of the
/// shape), cut at kMaxMembers beyond the first ring, which the patch loops
/// read unconditionally. Members sit within `radius` reference hops of the
/// center, so each row is stored as small offsets from the center's row,
/// destination-major to match the loop's access order; on the packed shapes
/// all rows come from one bit-parallel sweep.
class NearRows {
 public:
  static constexpr std::size_t kMaxMembers = 64;  // one sweep, one bit per root

  template <class Ops>
  NearRows(const Ops& ops, const Graph& g, NodeId center, unsigned radius)
      : n_(g.num_nodes()), slot_(n_, -1), center_row_(n_) {
    members_.push_back(center);
    slot_[center] = 0;
    for (std::size_t lo = 0, level = 0; level < radius; ++level) {
      const std::size_t hi = members_.size();
      for (std::size_t i = lo; i < hi; ++i) {
        for (const NodeId w : g.neighbors(members_[i])) {
          if (slot_[w] >= 0 || (level > 0 && members_.size() == kMaxMembers)) continue;
          slot_[w] = static_cast<std::int32_t>(members_.size());
          members_.push_back(w);
        }
      }
      lo = hi;
    }
    const auto visit_shape = [&](NodeId u, auto&& visit) { ops.for_each_neighbor(u, visit); };
    std::vector<NodeId> cur, next;
    bfs_row(center, center_row_, cur, next, visit_shape);
    sweep(visit_shape);
  }

  bool contains(NodeId x) const { return slot_[x] >= 0; }
  /// Reference distance of a ball member x (contains(x) must hold) to d.
  std::uint32_t ref(NodeId x, NodeId d) const {
    return center_row_[d] + offset_[d * members_.size() + static_cast<std::size_t>(slot_[x])];
  }

 private:
  // Level-synchronous BFS from up to 64 members at once, one bit per root
  // (a first ring wider than that takes more batches); duplicate or self
  // neighbors are harmless.
  template <class ForEachNeighbor>
  void sweep(ForEachNeighbor&& for_each_neighbor) {
    const std::size_t m = members_.size();
    offset_.assign(n_ * m, 0);
    std::vector<std::uint64_t> seen(n_), frontier(n_), reached(n_, 0);
    std::vector<NodeId> cur, next, touched;
    for (std::size_t base = 0; base < m; base += 64) {
      std::fill(seen.begin(), seen.end(), 0);
      cur.clear();
      for (std::size_t i = base; i < std::min(m, base + 64); ++i) {
        const NodeId x = members_[i];
        seen[x] = frontier[x] = std::uint64_t{1} << (i - base);
        offset_[x * m + i] = static_cast<std::int8_t>(-static_cast<int>(center_row_[x]));
        cur.push_back(x);
      }
      for (std::uint32_t level = 1; !cur.empty(); ++level) {
        touched.clear();
        for (const NodeId u : cur) {
          const std::uint64_t mask = frontier[u];
          for_each_neighbor(u, [&](NodeId w) {
            if (reached[w] == 0) touched.push_back(w);
            reached[w] |= mask;
          });
        }
        next.clear();
        for (const NodeId w : touched) {
          std::uint64_t fresh = reached[w] & ~seen[w];
          reached[w] = 0;
          if (fresh == 0) continue;
          seen[w] |= fresh;
          frontier[w] = fresh;
          next.push_back(w);
          const auto offset = static_cast<std::int8_t>(static_cast<int>(level) -
                                                       static_cast<int>(center_row_[w]));
          for (; fresh != 0; fresh &= fresh - 1) {
            offset_[w * m + base + static_cast<std::size_t>(std::countr_zero(fresh))] = offset;
          }
        }
        cur.swap(next);
      }
    }
  }

  std::size_t n_;
  std::vector<std::int32_t> slot_;  // per node: member index, or -1 outside the ball
  std::vector<NodeId> members_;
  std::vector<std::uint32_t> center_row_;
  std::vector<std::int8_t> offset_;  // n x members, destination-major: ref(x, d) - ref(center, d)
};

/// Exception lookups for a destination loop that runs in increasing
/// destination order: each node's cursor into its sorted exception list only
/// moves forward, so a lookup is amortized O(1) and the whole loop pays
/// O(N + exceptions) without a second copy of the table.
class ExceptionCursor {
 public:
  ExceptionCursor(const std::vector<std::size_t>& offsets, const std::vector<NodeId>& dests,
                  const std::vector<std::uint32_t>& dists)
      : offsets_(offsets), dests_(dests), dists_(dists),
        cursor_(offsets.begin(), offsets.end() - 1) {}

  /// The stored exception for (d, x), or nullptr where x sits at its
  /// reference distance. d must not decrease between calls for one x.
  const std::uint32_t* at(NodeId d, NodeId x) {
    std::size_t& c = cursor_[x];
    const std::size_t end = offsets_[x + 1];
    while (c < end && dests_[c] < d) ++c;
    return c < end && dests_[c] == d ? &dists_[c] : nullptr;
  }

 private:
  const std::vector<std::size_t>& offsets_;
  const std::vector<NodeId>& dests_;
  const std::vector<std::uint32_t>& dists_;
  std::vector<std::size_t> cursor_;
};

/// Min-queue over small integer keys for the unit-weight sweeps: pops in
/// nondecreasing key order while every push is >= the last popped key.
/// Buckets keep their capacity across destinations.
class BucketQueue {
 public:
  bool empty() const { return size_ == 0; }
  void push(std::uint32_t key, NodeId x) {
    if (key >= buckets_.size()) buckets_.resize(key + 1);
    buckets_[key].push_back(x);
    if (size_++ == 0 || key < cur_) cur_ = key;
  }
  std::pair<std::uint32_t, NodeId> pop() {
    while (buckets_[cur_].empty()) ++cur_;
    const NodeId x = buckets_[cur_].back();
    buckets_[cur_].pop_back();
    --size_;
    return {cur_, x};
  }

 private:
  std::vector<std::vector<NodeId>> buckets_;
  std::uint32_t cur_ = 0;
  std::size_t size_ = 0;
};

// Ball radii. apply_fault's cascade asks for the old distances of the fault's
// neighbors (radius 1), of their neighbors for the live-parent test (2), and,
// when a radius-1 node is affected, of its children's neighbors (3). Retract's
// relaxation improves v itself on every destination and its neighbors on
// many, so radius 2 covers the common depth.
constexpr unsigned kApplyRadius = 3;
constexpr unsigned kRetractRadius = 2;

}  // namespace

CompressedRouter::CompressedRouter(const Graph& g) : n_(g.num_nodes()) {
  const ReferenceShape shape = find_reference_shape(g);
  if (shape.debruijn) {
    reference_ = Reference::DeBruijn;
    db_ = *shape.debruijn;
  } else if (shape.se_h != 0) {
    reference_ = Reference::ShuffleExchange;
    se_h_ = shape.se_h;
  } else {
    throw std::invalid_argument(
        "CompressedRouter: graph sits inside no de Bruijn or shuffle-exchange shape");
  }

  // The graph itself is retained for the canonical descent at query time. A
  // graph equal to its reference shape deviates nowhere, so only a proper
  // subgraph pays for the per-destination scans.
  graph_ = g;
  if (shape.equal) {
    exception_offsets_.assign(n_ + 1, 0);
  } else if (reference_ == Reference::DeBruijn) {
    build_shape_delta(debruijn_ops(db_, n_), g);
  } else {
    build_shape_delta(ShuffleExchangeShapeOps{se_h_}, g);
  }
  // Nodes already isolated in the input graph are adopted as retired faults,
  // so a router built from a degraded machine supports retract_fault too.
  for (std::size_t u = 0; u < n_; ++u) {
    if (graph_.degree(static_cast<NodeId>(u)) == 0) faulty_.push_back(static_cast<NodeId>(u));
  }
}

// Build of a proper subgraph: per destination, diff the exact BFS row against
// a BFS of the reference shape (cheaper than N evaluations of the O(h^2)
// formula, and provably equal to it); only the deviations are kept. The scan
// runs destination-major, so each node's exceptions come out sorted.
template <class Ops>
void CompressedRouter::build_shape_delta(const Ops& ops, const Graph& g) {
  struct RawException {
    NodeId node;
    NodeId dest;
    std::uint32_t dist;
  };
  std::vector<RawException> raw;
  {
    std::vector<std::uint32_t> row(n_), ref_row(n_);
    std::vector<NodeId> cur, next;
    for (std::size_t dest = 0; dest < n_; ++dest) {
      bfs_row_graph(g, static_cast<NodeId>(dest), row, cur, next);
      // Same BFS over the algebraic adjacency (the shapes are symmetric, so
      // rooting at dest gives distance-to-dest).
      bfs_row(static_cast<NodeId>(dest), ref_row, cur, next,
              [&](NodeId u, auto&& visit) { ops.for_each_neighbor(u, visit); });
      for (std::size_t v = 0; v < n_; ++v) {
        if (row[v] != ref_row[v]) {
          raw.push_back({static_cast<NodeId>(v), static_cast<NodeId>(dest), row[v]});
        }
      }
    }
  }
  exception_offsets_.assign(n_ + 1, 0);
  for (const RawException& e : raw) ++exception_offsets_[e.node + 1];
  for (std::size_t v = 0; v < n_; ++v) exception_offsets_[v + 1] += exception_offsets_[v];
  exception_dest_.resize(raw.size());
  exception_dist_.resize(raw.size());
  std::vector<std::size_t> cursor(exception_offsets_.begin(), exception_offsets_.end() - 1);
  for (const RawException& e : raw) {  // dest-major input keeps per-node dests sorted
    const std::size_t i = cursor[e.node]++;
    exception_dest_[i] = e.dest;
    exception_dist_[i] = e.dist;
  }
}

std::uint32_t CompressedRouter::reference_distance(NodeId dest, NodeId node) const {
  return reference_ == Reference::DeBruijn ? debruijn_distance(db_, node, dest)
                                           : shuffle_exchange_distance(se_h_, node, dest);
}

std::uint32_t CompressedRouter::distance(NodeId dest, NodeId node) const {
  const auto lo = exception_dest_.begin() + static_cast<std::ptrdiff_t>(exception_offsets_[node]);
  const auto hi =
      exception_dest_.begin() + static_cast<std::ptrdiff_t>(exception_offsets_[node + 1]);
  const auto it = std::lower_bound(lo, hi, dest);
  if (it != hi && *it == dest) {
    return exception_dist_[static_cast<std::size_t>(it - exception_dest_.begin())];
  }
  return reference_distance(dest, node);
}

NodeId CompressedRouter::next_hop(NodeId dest, NodeId node) const {
  if (node == dest) return dest;
  const std::uint32_t here = distance(dest, node);
  if (here == static_cast<std::uint32_t>(-1)) return kInvalidNode;
  return canonical_descent_step(graph_, node, [&](NodeId w) { return distance(dest, w); });
}

std::size_t CompressedRouter::memory_bytes() const {
  // The exception CSR plus the retained graph CSR (offsets + both half-edge
  // arrays).
  return exception_offsets_.size() * sizeof(std::size_t) +
         exception_dest_.size() * sizeof(NodeId) +
         exception_dist_.size() * sizeof(std::uint32_t) +
         (graph_.num_nodes() + 1) * sizeof(std::size_t) +
         graph_.num_edges() * 2 * sizeof(NodeId);
}

// --- CompressedRouter incremental maintenance --------------------------------

void CompressedRouter::reference_neighbors(NodeId x, std::vector<NodeId>& out) const {
  if (reference_ == Reference::DeBruijn) {
    debruijn_neighbors(db_, x, out);
  } else {
    shuffle_exchange_neighbors(se_h_, x, out);
  }
}

CompressedRouter::Stats CompressedRouter::stats() const {
  Stats s;
  s.exception_entries = exception_dest_.size();
  s.bytes = memory_bytes();
  switch (reference_) {
    case Reference::DeBruijn:
      s.reference = "debruijn";
      s.reference_base = db_.base;
      s.reference_digits = db_.digits;
      break;
    case Reference::ShuffleExchange:
      s.reference = "shuffle_exchange";
      s.reference_digits = se_h_;
      break;
  }
  s.tracked_faults = faulty_.size();
  s.patch_evaluations = patch_evaluations_;
  // FNV-1a over the logical routing state, so two routers answering
  // identically hash identically regardless of how they were produced
  // (from-scratch build vs a chain of incremental patches vs journal replay).
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(n_));
  for (const std::size_t o : exception_offsets_) mix(o);
  for (const NodeId d : exception_dest_) mix(d);
  for (const std::uint32_t d : exception_dist_) mix(d);
  s.state_hash = h;
  return s;
}

void CompressedRouter::rebuild_graph(NodeId v, const std::vector<NodeId>& add_neighbors,
                                     bool removing) {
  GraphBuilder b(n_);
  b.reserve_edges(graph_.num_edges() + add_neighbors.size());
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId w : graph_.neighbors(u)) {
      if (u >= w) continue;  // each undirected edge once
      if (removing && (u == v || w == v)) continue;
      b.add_edge(u, w);
    }
  }
  if (!removing) {
    for (const NodeId w : add_neighbors) b.add_edge(v, w);
  }
  graph_ = b.build();
}

// The patch loops emit deltas destination by destination, so a stable
// counting sort by node yields (node, dest) order in O(N + deltas). Whether a
// delta is still an exception was decided by the loop that produced it.
void CompressedRouter::merge_deltas(const std::vector<DistDelta>& deltas) {
  if (deltas.empty()) return;
  std::vector<std::size_t> start(n_ + 1, 0);
  for (const DistDelta& dl : deltas) ++start[dl.node + 1];
  for (std::size_t u = 0; u < n_; ++u) start[u + 1] += start[u];
  std::vector<std::uint32_t> order(deltas.size());
  {
    std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      order[cursor[deltas[i].node]++] = static_cast<std::uint32_t>(i);
    }
  }
  std::vector<std::size_t> new_offsets(n_ + 1, 0);
  std::vector<NodeId> new_dest(exception_dest_.size() + deltas.size());
  std::vector<std::uint32_t> new_dist(new_dest.size());
  std::size_t out = 0;
  const auto keep = [&](NodeId dest, std::uint32_t dist) {
    new_dest[out] = dest;
    new_dist[out] = dist;
    ++out;
  };
  for (NodeId u = 0; u < n_; ++u) {
    std::size_t oi = exception_offsets_[u];
    const std::size_t oe = exception_offsets_[u + 1];
    for (std::size_t di = start[u]; di < start[u + 1]; ++di) {
      const DistDelta& dl = deltas[order[di]];
      for (; oi < oe && exception_dest_[oi] < dl.dest; ++oi) {
        keep(exception_dest_[oi], exception_dist_[oi]);
      }
      if (oi < oe && exception_dest_[oi] == dl.dest) ++oi;  // the delta overrides it
      // Canonical form: an exception exists exactly where the true distance
      // deviates from the reference algebra; a delta back on it erases.
      if (dl.dist != kAtReference) keep(dl.dest, dl.dist);
    }
    for (; oi < oe; ++oi) keep(exception_dest_[oi], exception_dist_[oi]);
    new_offsets[u + 1] = out;
  }
  new_dest.resize(out);
  new_dist.resize(out);
  exception_offsets_ = std::move(new_offsets);
  exception_dest_ = std::move(new_dest);
  exception_dist_ = std::move(new_dist);
}

void CompressedRouter::apply_fault(NodeId v) {
  if (v >= n_) throw std::invalid_argument("CompressedRouter::apply_fault: node out of range");
  if (std::binary_search(faulty_.begin(), faulty_.end(), v)) {
    throw std::invalid_argument("CompressedRouter::apply_fault: node already retired");
  }
  const std::vector<DistDelta> deltas = reference_ == Reference::DeBruijn
                                            ? fault_deltas(debruijn_ops(db_, n_), v)
                                            : fault_deltas(ShuffleExchangeShapeOps{se_h_}, v);
  rebuild_graph(v, {}, /*removing=*/true);
  merge_deltas(deltas);
  faulty_.insert(std::upper_bound(faulty_.begin(), faulty_.end(), v), v);
}

template <class Ops>
std::vector<CompressedRouter::DistDelta> CompressedRouter::fault_deltas(const Ops& ops,
                                                                        NodeId v) {
  const auto nb = graph_.neighbors(v);
  const std::vector<NodeId> old_neighbors(nb.begin(), nb.end());
  const NearRows near(ops, graph_, v, kApplyRadius);
  // v's old row, the old hop count from v to every node (and old_v = ring[d]).
  std::vector<std::uint32_t> ring(n_);
  {
    std::vector<NodeId> cur, next;
    bfs_row_graph(graph_, v, ring, cur, next);
  }
  ExceptionCursor exceptions(exception_offsets_, exception_dest_, exception_dist_);
  patch_evaluations_ = 0;

  std::vector<DistDelta> deltas;

  // Era-stamped scratch shared across destinations (no per-destination O(N)
  // clearing): membership in the affected set, settled/tentative state for
  // the repair Dijkstra, and the exact old distances of affected and probed
  // nodes with their witnesses (the stepper's hints when a node becomes a
  // center).
  std::vector<std::uint32_t> in_affected(n_, 0), settled(n_, 0), tentative(n_);
  std::vector<std::uint32_t> old_stamp(n_, 0), old_dist(n_);
  std::vector<DistanceWitness> old_wit(n_);
  std::uint32_t era = 0;
  NodeId d = 0;
  typename Ops::Stepper stepper = ops.make(0);
  BucketQueue cascade, repair;
  std::vector<NodeId> affected;

  // Old distance of x to d where something stored answers: the memo, the
  // exception table, else (x at its reference distance) the ball's row.
  const auto old_known = [&](NodeId x, std::uint32_t& out) {
    if (old_stamp[x] == era) {
      out = old_dist[x];
    } else if (x == d) {
      out = 0;
    } else if (const std::uint32_t* e = exceptions.at(d, x)) {
      out = *e;
    } else if (near.contains(x)) {
      out = near.ref(x, d);
    } else {
      return false;
    }
    return true;
  };
  // Old distance of x, a neighbor of u (old distance du), given that it is
  // >= lo: exact when <= cap, else some value > cap. Where nothing stored
  // answers, a capped probe from u's reference state decides — u's old
  // distance, or a full scan where u itself has an exception.
  const auto old_probe = [&](NodeId x, NodeId u, std::uint32_t du, std::uint32_t lo,
                             std::uint32_t cap) {
    std::uint32_t dx = kUnreachable;
    if (old_known(x, dx)) return dx;
    if (stepper.node() != u) {
      if (exceptions.at(d, u) != nullptr) {
        stepper.reset(u);
        ++patch_evaluations_;
      } else {
        stepper.seed(u, du, old_stamp[u] == era ? old_wit[u] : DistanceWitness{});
      }
    }
    DistanceWitness wit;
    dx = stepper.probe_adjacent(x, lo, cap, &wit);
    ++patch_evaluations_;
    if (dx <= cap) {
      old_stamp[x] = era;
      old_dist[x] = dx;
      old_wit[x] = wit;
    }
    return dx;
  };

  for (d = 0; d < n_; ++d) {
    if (d == v) {
      // The row of destination v: an isolated node is unreachable from everyone.
      for (NodeId u = 0; u < n_; ++u) {
        if (u != v && ring[u] != kUnreachable) deltas.push_back({u, v, kUnreachable});
      }
      continue;
    }
    const std::uint32_t old_v = ring[d];
    if (old_v == kUnreachable) continue;  // v lies on no live path to d
    // Distances only grow under a deletion (new > old >= reference), so every
    // delta this loop emits is an exception.
    deltas.push_back({v, d, kUnreachable});
    ++era;
    stepper.retarget(d);
    in_affected[v] = era;
    affected.clear();

    // A node whose every shortest-path parent (a neighbor one hop closer) is
    // v or already affected loses all of its shortest paths to d
    // (Ramalingam–Reps deletion). Processing candidates in increasing
    // old-distance order makes the test exact: all affected nodes of the
    // parent level are classified before any child. Every candidate x has a
    // shortest path through v (dx == old_v + ring[x]), so a neighbor one
    // ring closer to v is a parent outright; other parents already known are
    // checked next, and a probe only asks "one hop closer?".
    const auto has_live_parent = [&](NodeId x, std::uint32_t dx) {
      bool unknown = false;
      for (const NodeId w : graph_.neighbors(x)) {
        if (w == v || in_affected[w] == era) continue;
        std::uint32_t dw = kUnreachable;
        if (ring[w] + 1 == ring[x]) return true;
        if (!old_known(w, dw)) {
          unknown = true;
        } else if (dw + 1 == dx) {
          return true;
        }
      }
      if (!unknown) return false;
      for (const NodeId w : graph_.neighbors(x)) {
        if (w == v || in_affected[w] == era) continue;
        if (old_probe(w, x, dx, dx - 1, dx - 1) + 1 == dx) return true;
      }
      return false;
    };
    const auto mark_affected = [&](NodeId u, std::uint32_t du) {
      if (old_stamp[u] != era) old_wit[u] = DistanceWitness{};
      in_affected[u] = era;
      old_stamp[u] = era;
      old_dist[u] = du;
      affected.push_back(u);
      cascade.push(du, u);
    };
    for (const NodeId u : old_neighbors) {
      std::uint32_t du = kUnreachable;
      old_known(u, du);  // the first ring is in the ball
      if (du != old_v + 1 || in_affected[u] == era) continue;
      if (has_live_parent(u, du)) continue;
      mark_affected(u, du);
    }
    while (!cascade.empty()) {
      const auto [du, u] = cascade.pop();
      // An unaffected neighbor sits at du or du + 1 (at du - 1 it would have
      // been a live parent of u), and at du + 1 only if it lies one ring
      // farther from v (its path through v is no longer than u's otherwise).
      // Settle the outward ones from u's position, then test the children.
      const auto outward = [&](NodeId x) {
        return x != v && in_affected[x] != era && ring[x] == ring[u] + 1;
      };
      for (const NodeId x : graph_.neighbors(u)) {
        if (outward(x)) old_probe(x, u, du, du, du + 1);
      }
      for (const NodeId x : graph_.neighbors(u)) {
        if (!outward(x)) continue;
        if (old_probe(x, u, du, du, du + 1) != du + 1) continue;  // not a child of u
        if (has_live_parent(x, du + 1)) continue;
        mark_affected(x, du + 1);
      }
    }

    // Exact new distances for the affected set: Dijkstra seeded from the
    // unaffected boundary, whose distances the deletion leaves unchanged
    // (du for a neighbor no farther from v, else settled by the cascade).
    for (const NodeId u : affected) {
      const std::uint32_t du = old_dist[u];
      std::uint32_t best = kUnreachable;
      for (const NodeId w : graph_.neighbors(u)) {
        if (w == v || in_affected[w] == era) continue;
        const std::uint32_t dw =
            ring[w] <= ring[u] ? du : old_probe(w, u, du, du, du + 1);
        best = std::min(best, dw + 1);
      }
      tentative[u] = best;
      if (best != kUnreachable) repair.push(best, u);
    }
    while (!repair.empty()) {
      const auto [t, u] = repair.pop();
      if (settled[u] == era || t != tentative[u]) continue;
      settled[u] = era;
      for (const NodeId x : graph_.neighbors(u)) {
        if (x == v || in_affected[x] != era || settled[x] == era) continue;
        if (t + 1 < tentative[x]) {
          tentative[x] = t + 1;
          repair.push(t + 1, x);
        }
      }
    }
    for (const NodeId u : affected) {
      deltas.push_back({u, d, settled[u] == era ? tentative[u] : kUnreachable});
    }
  }
  return deltas;
}

void CompressedRouter::retract_fault(NodeId v) {
  const auto it = std::lower_bound(faulty_.begin(), faulty_.end(), v);
  if (it == faulty_.end() || *it != v) {
    throw std::invalid_argument("CompressedRouter::retract_fault: node is not retired");
  }
  faulty_.erase(it);
  merge_deltas(reference_ == Reference::DeBruijn
                   ? repair_deltas(debruijn_ops(db_, n_), v)
                   : repair_deltas(ShuffleExchangeShapeOps{se_h_}, v));
}

template <class Ops>
std::vector<CompressedRouter::DistDelta> CompressedRouter::repair_deltas(const Ops& ops,
                                                                         NodeId v) {
  // v returns with its full reference adjacency towards every live peer.
  std::vector<NodeId> restored;
  reference_neighbors(v, restored);
  std::erase_if(restored, [&](NodeId w) {
    return std::binary_search(faulty_.begin(), faulty_.end(), w);
  });
  // Rebuild the graph first: the relaxation walks the restored adjacency
  // while the exception table still holds the pre-repair distances (an old
  // distance is the stored exception, else the reference distance).
  rebuild_graph(v, restored, /*removing=*/false);
  const NearRows near(ops, graph_, v, kRetractRadius);
  ExceptionCursor exceptions(exception_offsets_, exception_dest_, exception_dist_);
  patch_evaluations_ = 0;

  std::vector<DistDelta> deltas;

  // Every destination but v: an edge insertion only ever shortens distances,
  // and every shortened path runs through v, so relaxing outward from v with
  // old distances as the cap touches exactly the improved nodes. All edges
  // weigh one and v is the only source, so the relaxation is a BFS: a node's
  // first improvement is final, and its parent is the node being expanded.
  // Era-stamped scratch: new distances, and each improved node's reference
  // distance (kUnreachable: only known to lie below its new distance) with
  // its witness.
  std::vector<std::uint32_t> stamp(n_, 0), best(n_), ref_dist(n_);
  std::vector<DistanceWitness> ref_wit(n_);
  std::vector<NodeId> queue;
  std::uint32_t era = 0;
  typename Ops::Stepper stepper = ops.make(0);
  for (NodeId d = 0; d < n_; ++d) {
    if (d == v) {
      // Row of destination v: one BFS over the restored graph against the
      // reference row. v was isolated, so every reachable node changes.
      std::vector<std::uint32_t> row_v(n_);
      std::vector<NodeId> cur, next;
      bfs_row_graph(graph_, v, row_v, cur, next);
      for (NodeId u = 0; u < n_; ++u) {
        if (u != v && row_v[u] != kUnreachable) {
          deltas.push_back({u, v, row_v[u] == near.ref(v, u) ? kAtReference : row_v[u]});
        }
      }
      continue;
    }
    ++era;
    stepper.retarget(d);
    std::uint32_t nv = kUnreachable;
    for (const NodeId w : graph_.neighbors(v)) {
      const std::uint32_t* e = exceptions.at(d, w);
      const std::uint32_t dw = e != nullptr ? *e : near.ref(w, d);  // the first ring
      if (dw != kUnreachable) nv = std::min(nv, dw + 1);
    }
    if (nv == kUnreachable) continue;  // d cannot reach any restored neighbor
    stamp[v] = era;
    best[v] = nv;
    ref_dist[v] = near.ref(v, d);
    ref_wit[v] = DistanceWitness{};
    queue.assign(1, v);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      const std::uint32_t t = best[u];
      deltas.push_back({u, d, t == ref_dist[u] ? kAtReference : t});
      for (const NodeId x : graph_.neighbors(u)) {
        if (stamp[x] == era) continue;  // improved already, at distance <= t + 1
        const std::uint32_t* old_x = exceptions.at(d, x);
        // Without an exception x sits at its reference distance already,
        // which no subgraph of the shape can beat.
        if (old_x == nullptr || t + 1 >= *old_x) continue;
        stamp[x] = era;
        best[x] = t + 1;
        queue.push_back(x);
        // Is t + 1 still an exception? The reference distance of x is at
        // most R(u) + 1 <= t + 1: strictly below when u is, else one capped
        // probe from u's position decides.
        ref_wit[x] = DistanceWitness{};
        if (near.contains(x)) {
          ref_dist[x] = near.ref(x, d);
        } else if (ref_dist[u] != t) {
          ref_dist[x] = kUnreachable;
        } else {
          if (stepper.node() != u) stepper.seed(u, t, ref_wit[u]);
          ref_dist[x] = stepper.probe_adjacent(x, 0, t + 1, &ref_wit[x]);
          ++patch_evaluations_;
        }
      }
    }
  }

  return deltas;
}

// --- ImplicitRouter ----------------------------------------------------------

namespace {

// Thread-local direct-mapped memo cache behind the batched implicit queries.
// Keyed by (router id, dest, node); a full entry also knows the canonical
// hop, a partial one (hop == kInvalidNode) only the distance + witness — the
// forward-seeded state a route_many batch leaves for the next engine cycle,
// when the same packet asks again from one hop closer. The slab is process
// scratch shared by every ImplicitRouter: router ids come from a never-reused
// counter, so a destroyed router's entries can never alias a new one, and
// memory_bytes() legitimately stays 0.
struct RouteCacheEntry {
  std::uint32_t id = 0;  // 0 = empty (router ids start at 1)
  NodeId dest = 0;
  NodeId node = 0;
  NodeId hop = 0;
  std::uint32_t dist = 0;
  std::int32_t wit = 0;
  std::uint64_t opt = 0;  // optimal-offset mask at `node` (0 = unknown)
};

// 4-way set-associative: a route_many cohort keeps two live keys per packet
// (the pending query and its forward-seed), and a direct-mapped table at
// realistic cohort sizes evicts enough of them to pay a full rescan per
// collision. Four ways push the overflow probability per set to ~1%.
constexpr std::size_t kRouteCacheWays = 4;
constexpr std::size_t kRouteCacheSets = 4096;  // x 4 ways x 32 B = 512 KiB
using RouteCache = std::array<RouteCacheEntry, kRouteCacheSets * kRouteCacheWays>;

RouteCache& route_cache() {
  thread_local RouteCache cache{};
  return cache;
}

inline std::uint64_t route_cache_hash(std::uint32_t id, NodeId dest, NodeId node) {
  std::uint64_t k = (static_cast<std::uint64_t>(dest) << 32) | node;
  k ^= static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull;
  k *= 0xBF58476D1CE4E5B9ull;
  k ^= k >> 29;
  k *= 0x94D049BB133111EBull;
  k ^= k >> 32;
  return k;
}

inline RouteCacheEntry* route_cache_find(RouteCache& cache, std::uint32_t id, NodeId dest,
                                         NodeId node) {
  const std::uint64_t k = route_cache_hash(id, dest, node);
  RouteCacheEntry* set = &cache[(static_cast<std::size_t>(k) & (kRouteCacheSets - 1)) *
                                kRouteCacheWays];
  for (std::size_t w = 0; w < kRouteCacheWays; ++w) {
    if (set[w].id == id && set[w].dest == dest && set[w].node == node) return &set[w];
  }
  return nullptr;
}

// The slot to (over)write for this key: its existing entry if present, else
// an empty/foreign-id way, else a key-hashed victim (stateless pseudo-LRU —
// two keys sharing a set pick different victims with high probability).
inline RouteCacheEntry& route_cache_store(RouteCache& cache, std::uint32_t id, NodeId dest,
                                          NodeId node) {
  const std::uint64_t k = route_cache_hash(id, dest, node);
  RouteCacheEntry* set = &cache[(static_cast<std::size_t>(k) & (kRouteCacheSets - 1)) *
                                kRouteCacheWays];
  for (std::size_t w = 0; w < kRouteCacheWays; ++w) {
    if (set[w].id == id && set[w].dest == dest && set[w].node == node) return set[w];
  }
  for (std::size_t w = 0; w < kRouteCacheWays; ++w) {
    if (set[w].id != id) return set[w];
  }
  return set[(k >> 32) & (kRouteCacheWays - 1)];
}

std::uint32_t next_route_cache_id() {
  static std::atomic<std::uint32_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// The implicit backend's scalar and batched paths share the per-shape
// plumbing (DebruijnShapeOps / ShuffleExchangeShapeOps) via templates over
// the topology steppers. Neighbor enumeration goes into a fixed stack array —
// the algebraic degree is <= 2m <= 32 on every packed shape (wider bases take
// the next_hop_wide fallback), and SE is <= 3.
constexpr int kMaxFixedDegree = 32;

// Canonical hop from the stepper's current node: the algebraic enumeration
// produces exactly the graph's sorted adjacency, so the first neighbor whose
// capped probe proves dist-1 is the canonical (lowest-id) hop — and at
// dist == 1 the only closer node is dest itself, no probes needed. The
// winner's witness comes back so the caller can advance/memoize it without
// another scan. Neighbors come pre-packaged from the stepper
// (probe_neighbors/probe_pre): the shift classification and its modular
// divisions happen once per hop, not once per probe.
template <class Stepper>
NodeId canonical_hop(const Stepper& st, DistanceWitness* hop_wit, std::uint64_t* hop_opt) {
  const std::uint32_t here = st.distance();
  if (here == 1) {
    hop_wit->offset = 0;
    *hop_opt = 0;
    return st.dest();
  }
  typename Stepper::ProbeNeighbor nbrs[kMaxFixedDegree];
  const int count = st.probe_neighbors(nbrs);
  for (int i = 0; i < count; ++i) {
    if (st.probe_pre(nbrs[i], here - 1, hop_wit, hop_opt) == here - 1) return nbrs[i].id;
  }
  return kInvalidNode;  // unreachable on a connected shape: cannot happen
}

template <class Ops>
NodeId scalar_next_hop(const Ops& ops, NodeId dest, NodeId node) {
  typename Ops::Stepper st = ops.make(dest);
  st.reset(node);
  DistanceWitness w;
  std::uint64_t opt = 0;
  return canonical_hop(st, &w, &opt);
}

template <class Ops>
void route_many_impl(const Ops& ops, std::uint32_t cache_id, std::uint64_t n,
                     std::span<const NodeId> dests, std::span<const NodeId> nodes,
                     std::span<NodeId> out) {
  RouteCache& cache = route_cache();
  std::optional<typename Ops::Stepper> st;
  NodeId st_dest = kInvalidNode;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const NodeId dest = dests[i];
    const NodeId node = nodes[i];
    if (node >= n || dest >= n) throw std::out_of_range("ImplicitRouter: node out of range");
    if (node == dest) {
      out[i] = dest;
      continue;
    }
    RouteCacheEntry* e = route_cache_find(cache, cache_id, dest, node);
    if (e != nullptr && e->hop != kInvalidNode) {
      out[i] = e->hop;
      continue;
    }
    if (!st) {
      st.emplace(ops.make(dest));
      st_dest = dest;
    } else if (st_dest != dest) {
      st->retarget(dest);
      st_dest = dest;
    }
    if (e != nullptr) {
      // Partial hit: skip the full scan and restore the optimal-offset mask
      // the previous hop's probe computed for free.
      st->seed_opt(node, e->dist, DistanceWitness{e->wit}, e->opt);
    } else {
      st->reset(node);
    }
    DistanceWitness hop_wit{};
    std::uint64_t hop_opt = 0;
    const NodeId hop = canonical_hop(*st, &hop_wit, &hop_opt);
    out[i] = hop;
    if (hop == kInvalidNode) continue;
    const std::uint32_t here = st->distance();
    // A partial hit upgrades in place — no second hashed lookup.
    RouteCacheEntry& full = e != nullptr ? *e : route_cache_store(cache, cache_id, dest, node);
    full = {cache_id, dest, node, hop, here, st->witness().offset, st->opt_mask()};
    if (hop != dest) {
      // Forward-seed the hop's slot: next cycle this packet asks from `hop`
      // at distance here-1, and the winner's witness + mask make that query
      // O(popcount(mask)). Never downgrade a full entry that already knows
      // its hop.
      RouteCacheEntry& f = route_cache_store(cache, cache_id, dest, hop);
      const bool keep =
          f.id == cache_id && f.dest == dest && f.node == hop && f.hop != kInvalidNode;
      if (!keep) f = {cache_id, dest, hop, kInvalidNode, here - 1, hop_wit.offset, hop_opt};
    }
  }
}

// The hinted batch: per-packet state rides in the caller's RouteHint array
// instead of the hashed memo cache, so a warm packet costs one seed + the
// adjacent-offset probes and touches no shared scratch at all. A hint is
// trusted only when its (dest, node) matches the query — fresh or stale
// entries fall back to a full positioning scan and are then overwritten.
template <class Ops>
void route_many_hinted_impl(const Ops& ops, std::uint64_t n, std::span<const NodeId> dests,
                            std::span<const NodeId> nodes, std::span<NodeId> out,
                            std::span<RouteHint> hints) {
  std::optional<typename Ops::Stepper> st;
  NodeId st_dest = kInvalidNode;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const NodeId dest = dests[i];
    const NodeId node = nodes[i];
    if (node >= n || dest >= n) throw std::out_of_range("ImplicitRouter: node out of range");
    if (node == dest) {
      out[i] = dest;
      continue;
    }
    if (!st) {
      st.emplace(ops.make(dest));
      st_dest = dest;
    } else if (st_dest != dest) {
      st->retarget(dest);
      st_dest = dest;
    }
    RouteHint& hint = hints[i];
    if (hint.dest == dest && hint.node == node) {
      st->seed_opt(node, hint.dist, DistanceWitness{hint.wit}, hint.opt);
    } else {
      st->reset(node);
    }
    DistanceWitness hop_wit{};
    std::uint64_t hop_opt = 0;
    const NodeId hop = canonical_hop(*st, &hop_wit, &hop_opt);
    out[i] = hop;
    if (hop == kInvalidNode) continue;
    hint = {dest, hop, st->distance() - 1, hop_wit.offset, hop_opt};
  }
}

template <class Ops>
void distance_many_impl(const Ops& ops, std::uint32_t cache_id, std::uint64_t n,
                        std::span<const NodeId> dests, std::span<const NodeId> nodes,
                        std::span<std::uint32_t> out) {
  RouteCache& cache = route_cache();
  std::optional<typename Ops::Stepper> st;
  NodeId st_dest = kInvalidNode;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const NodeId dest = dests[i];
    const NodeId node = nodes[i];
    if (node >= n || dest >= n) throw std::out_of_range("ImplicitRouter: node out of range");
    if (node == dest) {
      out[i] = 0;
      continue;
    }
    const RouteCacheEntry* e = route_cache_find(cache, cache_id, dest, node);
    if (e != nullptr) {
      out[i] = e->dist;  // full and partial entries both know the distance
      continue;
    }
    if (!st) {
      st.emplace(ops.make(dest));
      st_dest = dest;
    } else if (st_dest != dest) {
      st->retarget(dest);
      st_dest = dest;
    }
    out[i] = st->reset(node);
    route_cache_store(cache, cache_id, dest, node) = {
        cache_id, dest, node, kInvalidNode, st->distance(), st->witness().offset,
        st->opt_mask()};
  }
}

template <class Ops>
std::vector<NodeId> path_impl(const Ops& ops, NodeId from, NodeId dest) {
  typename Ops::Stepper st = ops.make(dest);
  st.reset(from);
  std::vector<NodeId> route{from};
  route.reserve(st.distance() + 1);
  while (st.node() != dest) {
    DistanceWitness hop_wit{};
    std::uint64_t hop_opt = 0;
    const NodeId hop = canonical_hop(st, &hop_wit, &hop_opt);
    // seed_opt rather than advance: it repositions just as cheaply and keeps
    // the winner's optimal-offset mask for the next hop's probes.
    st.seed_opt(hop, st.distance() - 1, hop_wit, hop_opt);
    route.push_back(hop);
  }
  return route;
}

}  // namespace

ImplicitRouter::ImplicitRouter(Shape shape, DeBruijnParams db, unsigned se_h, std::uint64_t n)
    : shape_(shape), db_(db), se_h_(se_h), n_(n), cache_id_(next_route_cache_id()) {}

ImplicitRouter ImplicitRouter::for_debruijn(const DeBruijnParams& params) {
  return ImplicitRouter(Shape::DeBruijn, params, 0, debruijn_num_nodes(params));
}

ImplicitRouter ImplicitRouter::for_shuffle_exchange(unsigned h) {
  return ImplicitRouter(Shape::ShuffleExchange, {}, h, shuffle_exchange_num_nodes(h));
}

std::size_t ImplicitRouter::route_cache_bytes() { return sizeof(RouteCache); }

std::uint32_t ImplicitRouter::distance(NodeId dest, NodeId node) const {
  return shape_ == Shape::DeBruijn ? debruijn_distance(db_, node, dest)
                                   : shuffle_exchange_distance(se_h_, node, dest);
}

NodeId ImplicitRouter::next_hop(NodeId dest, NodeId node) const {
  if (node >= n_ || dest >= n_) throw std::out_of_range("ImplicitRouter: node out of range");
  if (node == dest) return dest;
  if (shape_ == Shape::DeBruijn) {
    if (2 * db_.base > kMaxFixedDegree) return next_hop_wide(dest, node);
    return scalar_next_hop(debruijn_ops(db_, n_), dest, node);
  }
  return scalar_next_hop(ShuffleExchangeShapeOps{se_h_}, dest, node);
}

// Wide-base shapes (algebraic degree > kMaxFixedDegree): the original
// vector-based enumeration with full distance evaluations. Cold by
// construction — every packed B_{m,h} has degree <= 2m <= 32.
NodeId ImplicitRouter::next_hop_wide(NodeId dest, NodeId node) const {
  const std::uint32_t here = distance(dest, node);
  if (here == 1) return dest;
  std::vector<NodeId> neighbors;
  debruijn_neighbors(db_, node, neighbors);
  for (const NodeId w : neighbors) {
    if (distance(dest, w) + 1 == here) return w;
  }
  return kInvalidNode;  // unreachable on a connected shape: cannot happen
}

void ImplicitRouter::route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                                std::span<NodeId> out) const {
  check_batch_spans(dests.size(), nodes.size(), out.size());
  if (shape_ == Shape::DeBruijn) {
    if (2 * db_.base > kMaxFixedDegree) {
      for (std::size_t i = 0; i < dests.size(); ++i) out[i] = next_hop(dests[i], nodes[i]);
      return;
    }
    route_many_impl(debruijn_ops(db_, n_), cache_id_, n_, dests, nodes, out);
    return;
  }
  route_many_impl(ShuffleExchangeShapeOps{se_h_}, cache_id_, n_, dests, nodes, out);
}

void ImplicitRouter::route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                                std::span<NodeId> out, std::span<RouteHint> hints) const {
  check_batch_spans(dests.size(), nodes.size(), out.size());
  if (hints.size() != dests.size()) {
    throw std::invalid_argument("Router batch query: hint span size differs");
  }
  if (shape_ == Shape::DeBruijn) {
    if (2 * db_.base > kMaxFixedDegree) {
      for (std::size_t i = 0; i < dests.size(); ++i) out[i] = next_hop(dests[i], nodes[i]);
      return;
    }
    route_many_hinted_impl(debruijn_ops(db_, n_), n_, dests, nodes, out, hints);
    return;
  }
  route_many_hinted_impl(ShuffleExchangeShapeOps{se_h_}, n_, dests, nodes, out, hints);
}

void ImplicitRouter::distance_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                                   std::span<std::uint32_t> out) const {
  check_batch_spans(dests.size(), nodes.size(), out.size());
  if (shape_ == Shape::DeBruijn) {
    if (2 * db_.base > kMaxFixedDegree) {
      for (std::size_t i = 0; i < dests.size(); ++i) out[i] = distance(dests[i], nodes[i]);
      return;
    }
    distance_many_impl(debruijn_ops(db_, n_), cache_id_, n_, dests, nodes, out);
    return;
  }
  distance_many_impl(ShuffleExchangeShapeOps{se_h_}, cache_id_, n_, dests, nodes, out);
}

std::vector<NodeId> ImplicitRouter::path(NodeId from, NodeId dest) const {
  if (from >= n_ || dest >= n_) return {};
  if (shape_ == Shape::DeBruijn) {
    if (2 * db_.base > kMaxFixedDegree) return Router::path(from, dest);
    return path_impl(debruijn_ops(db_, n_), from, dest);
  }
  return path_impl(ShuffleExchangeShapeOps{se_h_}, from, dest);
}

// --- construction ------------------------------------------------------------

std::unique_ptr<Router> make_router(const Graph& g) {
  if (g.num_nodes() < kAlgebraMinNodes) return std::make_unique<TableRouter>(g);
  const ReferenceShape shape = find_reference_shape(g);
  if (!shape.found()) return std::make_unique<TableRouter>(g);
  if (!shape.equal) return std::make_unique<CompressedRouter>(g);
  if (shape.debruijn) {
    return std::make_unique<ImplicitRouter>(ImplicitRouter::for_debruijn(*shape.debruijn));
  }
  return std::make_unique<ImplicitRouter>(ImplicitRouter::for_shuffle_exchange(shape.se_h));
}

}  // namespace ftdb::sim
