// The point-to-point shuffle-exchange network SE_h (Stone [13]).
//
// 2^h nodes labelled with h-bit strings. Edges:
//   shuffle   — x ~ rotate_left(x)   (cyclic rotation of the bit string)
//   exchange  — x ~ x XOR 1          (flip the least significant bit)
// The undirected shuffle edge also provides the unshuffle (rotate-right)
// connection, so SE_h has degree <= 3.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "topology/distance_witness.hpp"

namespace ftdb {

std::uint64_t shuffle_exchange_num_nodes(unsigned h);

Graph shuffle_exchange_graph(unsigned h);

/// Neighbor along the shuffle edge.
NodeId se_shuffle(NodeId x, unsigned h);
/// Neighbor along the unshuffle direction (inverse rotation).
NodeId se_unshuffle(NodeId x, unsigned h);
/// Neighbor along the exchange edge.
NodeId se_exchange(NodeId x);

/// Sorted unique undirected neighbors of x in SE_h (exchange, shuffle,
/// unshuffle; x itself excluded), written into `out`.
void shuffle_exchange_neighbors(unsigned h, NodeId x, std::vector<NodeId>& out);

/// Exact hop distance between x and y in SE_h from the labels alone, O(h^2):
/// a shortest SE walk is a tour of the rotation cycle Z_h that flips every
/// bit where x disagrees with the (rotation-aligned) destination while the
/// exchange port passes over it. For each final alignment rho, the required
/// flip positions become residues the rotation walk must visit on the
/// integer line; the cheapest one-reversal sweep covering them and ending on
/// rho's residue class gives the rotation cost, plus one hop per flip.
/// Verified hop-exact against BFS for every pair of SE_2..SE_10 in the test
/// suite.
std::uint32_t shuffle_exchange_distance(unsigned h, NodeId x, NodeId y);

/// shuffle_exchange_distance plus the witness: the winning rotation rho.
std::uint32_t shuffle_exchange_distance_witness(unsigned h, NodeId x, NodeId y,
                                                DistanceWitness* witness);

/// O(h) incremental update: given d(x, y) == dist with `witness` from a
/// previous *_witness/_step call, returns d(x_next, y) for x_next a neighbor
/// of x (exchange/shuffle/unshuffle), updating the witness. The winning
/// rotation for the neighbor is the current one shifted by the move, so the
/// hinted scan plus the flips + min(rho, h-rho) rejection confirms the new
/// distance without re-deriving every alignment.
std::uint32_t shuffle_exchange_distance_step(unsigned h, NodeId x, NodeId x_next, NodeId y,
                                             std::uint32_t dist, DistanceWitness* witness);

/// Sorted unique undirected neighbors of x written into the caller's array
/// (needs 3 slots; no allocation, no TLS). Returns the count.
int shuffle_exchange_neighbors_fixed(unsigned h, NodeId x, NodeId* out);

/// Incremental distance oracle to a fixed destination in SE_h — the SE
/// counterpart of DebruijnDistanceStepper: each hop rotates or flips one
/// bit, so the winning rotation alignment shifts by at most one and a hinted
/// capped scan replaces the O(h^2) per-rotation sweep.
class ShuffleExchangeDistanceStepper {
 public:
  ShuffleExchangeDistanceStepper(unsigned h, NodeId dest);

  /// Position at `node` with a full scan; returns d(node, dest).
  std::uint32_t reset(NodeId node);
  /// Re-aim at a new destination keeping the shape plumbing; positional
  /// state is invalid until the next reset()/seed().
  void retarget(NodeId dest);
  /// Restore a previously computed state without scanning (see the de Bruijn
  /// stepper's contract).
  void seed(NodeId node, std::uint32_t dist, const DistanceWitness& witness);
  /// Move to a neighbor of node(); returns the new distance.
  std::uint32_t step(NodeId neighbor);
  /// d(neighbor, dest) if it is <= cap, else some value > cap.
  std::uint32_t probe(NodeId neighbor, std::uint32_t cap) const;
  std::uint32_t probe_witness(NodeId neighbor, std::uint32_t cap, DistanceWitness* witness) const;
  /// Commit a previously probed neighbor reusing its (dist, witness).
  void advance(NodeId neighbor, std::uint32_t dist, const DistanceWitness& witness);

  /// One neighbor of the current node pre-packaged for probing — same
  /// batching contract as DebruijnDistanceStepper::ProbeNeighbor so the
  /// router's canonical-hop template works on either stepper. SE moves need
  /// no packed label; the hint is the move's rotation remap.
  struct ProbeNeighbor {
    NodeId id;
    int hint;
    int dir;  // 0: exchange, -1: shuffle (rho remaps o -> o-1), +1: unshuffle
  };

  /// Sorted, deduplicated neighbors of the current node (self excluded) with
  /// hints; `out` must hold at least 3 entries. Returns the count.
  int probe_neighbors(ProbeNeighbor* out) const;

  /// probe_witness() for an entry of probe_neighbors(). When cap ==
  /// distance() - 1 (the router's refutation probe) and the optimal-rotation
  /// mask is available, only the rotations that could possibly achieve
  /// distance() - 1 are evaluated; on success the neighbor's own mask is
  /// written to *opt_out (0 = unknown).
  std::uint32_t probe_pre(const ProbeNeighbor& nb, std::uint32_t cap, DistanceWitness* witness,
                          std::uint64_t* opt_out = nullptr) const;

  /// advance() for an entry of probe_neighbors(). `opt` is the neighbor's
  /// optimal-rotation mask from probe_pre (0 = unknown; recollected lazily).
  void advance_pre(const ProbeNeighbor& nb, std::uint32_t dist, const DistanceWitness& witness,
                   std::uint64_t opt = 0);

  /// seed() that also restores the optimal-rotation mask (0 = unknown).
  void seed_opt(NodeId node, std::uint32_t dist, const DistanceWitness& witness,
                std::uint64_t opt);

  /// The de Bruijn stepper's probe_adjacent() contract (d(neighbor, dest)
  /// if <= cap, else some value > cap; the caller guarantees >= floor), so
  /// the router's repair template runs on either shape. SE has no offset
  /// parity to exploit: this is the capped probe, and the floor is unused.
  std::uint32_t probe_adjacent(NodeId neighbor, std::uint32_t /*floor*/, std::uint32_t cap,
                               DistanceWitness* witness) const {
    return probe_witness(neighbor, cap, witness);
  }

  /// The set {rho : cost of the winning tour constrained to final alignment
  /// rho == distance()} as a bitmask (bit index rho), or 0 when not
  /// currently known. Each move remaps alignments by at most one rotation,
  /// so a neighbor one hop closer must win inside this mask's move-shifted
  /// image — refutation probes evaluate ~popcount(mask) rotations.
  std::uint64_t opt_mask() const { return opt_valid_ ? opt_ : 0; }

  NodeId node() const { return node_; }
  NodeId dest() const { return dest_; }
  std::uint32_t distance() const { return dist_; }
  const DistanceWitness& witness() const { return wit_; }

 private:
  int hint_for(NodeId neighbor) const;
  void collect_opt() const;

  std::uint64_t n_ = 0;
  NodeId dest_ = 0;
  NodeId node_ = kInvalidNode;
  std::uint32_t dist_ = 0;
  DistanceWitness wit_{};
  // Optimal-rotation mask for the current node (bit rho), maintained lazily:
  // cleared by anything that moves without one, recollected on the next
  // refutation probe.
  mutable std::uint64_t opt_ = 0;
  mutable bool opt_valid_ = false;
  int h_ = 0;
};

/// Recognizes a shuffle-exchange shape: the h with g exactly equal to SE_h,
/// or nullopt. The router layer's counterpart to debruijn_shape_of.
std::optional<unsigned> shuffle_exchange_shape_of(const Graph& g);

}  // namespace ftdb
