// The de Bruijn target graphs of Sections III and IV.
//
// B_{m,h} has m^h nodes labelled with h-digit base-m strings; (x, y) is an
// edge iff the digit strings overlap in h-1 positions (digit-shift
// definition), equivalently iff y = X(x, m, r, m^h) or x = X(y, m, r, m^h)
// for some r in {0..m-1} (algebraic definition, the one the fault-tolerant
// construction generalizes). Both generators are provided; tests assert they
// produce identical graphs.
#pragma once

#include <optional>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "topology/distance_witness.hpp"

namespace ftdb {

struct DeBruijnParams {
  std::uint64_t base = 2;  // m >= 2
  unsigned digits = 3;     // h >= 1 (the paper assumes h >= 3; smaller h is
                           // permitted here and exercised in tests)
};

/// Number of nodes m^h (throws on overflow / invalid parameters).
std::uint64_t debruijn_num_nodes(const DeBruijnParams& params);

/// Digit-shift definition: x ~ [x_{h-2},...,x_0,r] and x ~ [r,x_{h-1},...,x_1].
Graph debruijn_graph_digit_definition(const DeBruijnParams& params);

/// Algebraic definition via X(z,m,r,s) = (z*m + r) mod s with s = m^h.
Graph debruijn_graph(const DeBruijnParams& params);

/// The base-2 shorthand B_{2,h} used throughout Section III.
Graph debruijn_base2(unsigned h);

/// Out-neighbors under the *directed* interpretation (x -> (x*m + r) mod m^h),
/// used by the shift-register routing algorithm in the simulator.
std::vector<NodeId> debruijn_out_neighbors(const DeBruijnParams& params, NodeId x);

/// The classical de Bruijn digraph: m^h nodes, arc x -> (x*m + r) mod m^h for
/// every digit r (self-loops included — they are real shift transitions, and
/// they make the digraph Eulerian, which is what de Bruijn sequences need).
Digraph debruijn_digraph(std::uint64_t m, unsigned h);

/// Sorted unique undirected neighbors of x in B_{m,h} (left and right digit
/// shifts, x itself excluded), written into `out`. Reusing `out` across calls
/// makes the enumeration allocation-free after warm-up — this is the
/// implicit router's inner loop.
void debruijn_neighbors(const DeBruijnParams& params, NodeId x, std::vector<NodeId>& out);

/// Exact hop distance between x and y in the *undirected* B_{m,h}, computed
/// from the labels alone in O(h^2) — no graph, no BFS. Undirected shortest
/// paths may mix left and right shifts, so this is genuinely shorter than the
/// paper's left-shift route for many pairs. The digit strings are windows on
/// a tape: a left shift slides the window right, a right shift slides it
/// left, and every freshly exposed digit is free. A walk with running maximum
/// M, minimum mu and endpoint f preserves exactly the tape interval
/// [M, mu+h-1], so d(x,y) is the minimum of 2(M - mu) - |f| over all window
/// offsets f and all ways of pushing the mismatched positions out of the
/// preserved interval. Verified hop-exact against BFS for every pair of every
/// B_{m,h} with m in {2,3,4} in the test suite.
std::uint32_t debruijn_distance(const DeBruijnParams& params, NodeId x, NodeId y);

/// debruijn_distance plus the witness: the window offset f of the winning
/// alignment. Feeding the witness back as a hint (see the stepper) makes the
/// next scan along a route O(h).
std::uint32_t debruijn_distance_witness(const DeBruijnParams& params, NodeId x, NodeId y,
                                        DistanceWitness* witness);

/// O(h) incremental update: given d(x, y) == dist with `witness` from a
/// previous *_witness/_step call, returns d(x_next, y) for x_next an
/// algebraic neighbor of x, updating the witness. The neighbor's winning
/// offset is almost always the current one shifted by the move direction, so
/// the hinted scan confirms dist-1/dist/dist+1 without the full O(h^2)
/// alignment sweep.
std::uint32_t debruijn_distance_step(const DeBruijnParams& params, NodeId x, NodeId x_next,
                                     NodeId y, std::uint32_t dist, DistanceWitness* witness);

/// Sorted unique undirected neighbors of x written into the caller's fixed
/// array (no allocation, no TLS — the router's hottest enumeration). Returns
/// the count; requires capacity >= 2*m (throws otherwise).
int debruijn_neighbors_fixed(const DeBruijnParams& params, NodeId x, NodeId* out, int capacity);

/// Incremental distance oracle to a fixed destination — the route-following
/// hot path behind ImplicitRouter. Maintains the current node's packed digit
/// label (base-2 labels are their own packing; 2 < m <= 16 packs one digit
/// per nibble) and the witness of the winning window alignment, so moving to
/// a neighbor (step/advance) or testing one (probe) costs O(h): each hop
/// shifts one digit, the packed label updates with one shift-and-or, and the
/// hinted offset usually proves the bound immediately. Capped scans stop as
/// soon as the triangle-inequality floor (dist-1) is met or every remaining
/// offset is provably worse. Shapes outside the packed range (m > 16, or
/// m > 2 with 4h > 64) fall back to the exact O(h^2) formula — identical
/// results, no witness acceleration.
class DebruijnDistanceStepper {
 public:
  DebruijnDistanceStepper(const DeBruijnParams& params, NodeId dest);

  /// Position at `node` with a full scan; returns d(node, dest).
  std::uint32_t reset(NodeId node);
  /// Re-aim at a new destination keeping the shape plumbing (one label pack
  /// instead of a full reconstruction — the batched router's per-item path).
  /// Positional state is invalid until the next reset()/seed().
  void retarget(NodeId dest);
  /// Restore a previously computed state without scanning. `dist` and
  /// `witness` must come from an earlier scan of the same (node, dest) pair
  /// (e.g. a memo-cache hit); garbage in, garbage out.
  void seed(NodeId node, std::uint32_t dist, const DistanceWitness& witness);
  /// Move to an algebraic neighbor of node(); returns the new distance.
  std::uint32_t step(NodeId neighbor);
  /// d(neighbor, dest) if it is <= cap, else some value > cap. Does not move
  /// the stepper.
  std::uint32_t probe(NodeId neighbor, std::uint32_t cap) const;
  /// probe() that also reports the winning witness (meaningful only when the
  /// result is <= cap).
  std::uint32_t probe_witness(NodeId neighbor, std::uint32_t cap, DistanceWitness* witness) const;
  /// Commit a previously probed neighbor: move there reusing the (dist,
  /// witness) pair probe_witness returned — no scan at all.
  void advance(NodeId neighbor, std::uint32_t dist, const DistanceWitness& witness);

  /// One algebraic neighbor of the current node, pre-packaged for probing:
  /// id, packed label, and hinted window offset. probe_neighbors() builds
  /// these once per hop from the current packed label; probe_pre() then
  /// scans with no per-probe shift classification — the router's hot path
  /// pays the modular divisions once per hop instead of once per probe.
  struct ProbeNeighbor {
    NodeId id;
    std::uint64_t packed;
    int hint;
    int dir;  // -1: left shift (node*m+r mod n), +1: right shift
  };

  /// Sorted, deduplicated algebraic neighbors of the current node (self
  /// excluded) with packed labels and hints. `out` must hold at least
  /// 2*base entries. Returns the count.
  int probe_neighbors(ProbeNeighbor* out) const;

  /// probe_witness() for an entry of probe_neighbors(): identical result,
  /// division-free. When cap == distance() - 1 (the router's refutation
  /// probe) and the optimal-offset mask is available, only the offsets that
  /// could possibly achieve distance() - 1 are evaluated (usually one); on
  /// success the neighbor's own mask is written to *opt_out (0 = unknown).
  std::uint32_t probe_pre(const ProbeNeighbor& nb, std::uint32_t cap, DistanceWitness* witness,
                          std::uint64_t* opt_out = nullptr) const;

  /// advance() for an entry of probe_neighbors(): commit the probed (dist,
  /// witness) and reuse its packed label. `opt` is the neighbor's
  /// optimal-offset mask from probe_pre (0 = unknown; recollected lazily).
  void advance_pre(const ProbeNeighbor& nb, std::uint32_t dist, const DistanceWitness& witness,
                   std::uint64_t opt = 0);

  /// seed() that also restores the optimal-offset mask (0 = unknown).
  void seed_opt(NodeId node, std::uint32_t dist, const DistanceWitness& witness,
                std::uint64_t opt);

  /// probe_witness() for a caller that knows d(neighbor, dest) >= floor:
  /// d(neighbor, dest) if it is <= cap, else some value > cap (cap >=
  /// distance() + 1 makes it exact). Each offset's cost moves by exactly one
  /// per hop, so the neighbor can reach distance() - 1 only next to the
  /// current node's optimal offsets (cost == distance()) and distance() only
  /// next to its near-optimal ones (cost == distance() + 1): the probe
  /// evaluates just those, skipping whichever the floor and cap rule out, and
  /// both masks are collected once per position and shared by every neighbor
  /// probed from it.
  std::uint32_t probe_adjacent(NodeId neighbor, std::uint32_t floor, std::uint32_t cap,
                               DistanceWitness* witness) const;

  /// The set {f : cost of the winning walk constrained to window offset f
  /// == distance()} as a bitmask (bit index f + h), or 0 when not currently
  /// known. A neighbor one hop closer must win at an offset adjacent to one
  /// of these, so refutation probes evaluate ~popcount(mask) offsets
  /// (empirically ~1) instead of sweeping the parity half-window.
  std::uint64_t opt_mask() const { return opt_valid_ ? opt_ : 0; }

  NodeId node() const { return node_; }
  NodeId dest() const { return dest_; }
  std::uint32_t distance() const { return dist_; }
  const DistanceWitness& witness() const { return wit_; }

 private:
  enum class Mode : std::uint8_t { kBits, kNibbles, kGeneric };
  struct Neighbor {
    std::uint64_t packed;
    int hint;
  };
  Neighbor derive(NodeId neighbor) const;
  void collect_opt() const;
  void collect_near() const;

  DeBruijnParams params_;
  std::uint64_t n_ = 0;
  std::uint64_t high_ = 0;  // m^{h-1}
  std::uint64_t py_ = 0;    // packed dest label
  std::uint64_t px_ = 0;    // packed current label
  std::uint64_t lane_ = 0;  // low h*digit_bits bits
  NodeId dest_ = 0;
  NodeId node_ = kInvalidNode;
  std::uint32_t dist_ = 0;
  DistanceWitness wit_{};
  // Optimal-offset mask for the current node (bit f + h_), maintained lazily:
  // reset() computes it, advance_pre() carries the probe's mask forward, and
  // anything that invalidates it (seed/step without a mask) just clears
  // opt_valid_ — the next probe_pre recollects in O(dist) evaluations.
  mutable std::uint64_t opt_ = 0;
  mutable bool opt_valid_ = false;
  // Near-optimal mask {f : cost(f) == dist_ + 1} (bit f + h_), collected on
  // the first probe_adjacent() at a position that needs it.
  mutable std::uint64_t near_ = 0;
  mutable bool near_valid_ = false;
  bool use_opt_ = false;  // packed mode and h <= 31 (mask fits 2h+1 bits)
  int h_ = 0;
  int db_ = 1;  // bits per packed digit: 1 (base 2) or 4 (m <= 16)
  Mode mode_ = Mode::kGeneric;
};

/// The exact integer h-th root: the m >= 2 with m^h == n, or 0 when none
/// exists. Shared by every shape search that enumerates (m, h) candidates.
std::uint64_t debruijn_exact_root(std::uint64_t n, unsigned h);

/// Recognizes a de Bruijn shape: the (m, h) with g exactly equal to B_{m,h}
/// (node count m^h and every adjacency list algebraic), or nullopt. O(N * m)
/// per candidate factorization of N — cheap enough to run per simulation.
/// This is what lets the router layer pick the O(1)-memory implicit backend
/// automatically, including on reconfigured machines whose live logical graph
/// came out dilation-1.
std::optional<DeBruijnParams> debruijn_shape_of(const Graph& g);

}  // namespace ftdb
