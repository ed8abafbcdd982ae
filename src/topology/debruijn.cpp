#include "topology/debruijn.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "graph/csr.hpp"
#include "topology/labels.hpp"

namespace ftdb {

namespace {
void validate(const DeBruijnParams& params) {
  if (params.base < 2) throw std::invalid_argument("de Bruijn base must be >= 2");
  if (params.digits < 1) throw std::invalid_argument("de Bruijn digit count must be >= 1");
}
}  // namespace

std::uint64_t debruijn_num_nodes(const DeBruijnParams& params) {
  validate(params);
  return labels::ipow_checked(params.base, params.digits);
}

Graph debruijn_graph_digit_definition(const DeBruijnParams& params) {
  const std::uint64_t n = debruijn_num_nodes(params);
  std::vector<csr::HalfEdge>& halves = csr::emission_buffer();
  halves.reserve(static_cast<std::size_t>(n) * params.base * 2);
  for (std::uint64_t x = 0; x < n; ++x) {
    for (std::uint32_t r = 0; r < params.base; ++r) {
      // Forward shift [x_{h-2},...,x_0,r]; the reverse shifts are the same
      // edge set viewed from the other endpoint, so emitting forward edges
      // from every node covers both directions.
      const std::uint64_t y = labels::shift_in_low(x, params.base, params.digits, r);
      csr::emit_undirected(halves, static_cast<NodeId>(x), static_cast<NodeId>(y));
    }
  }
  return GraphBuilder::from_half_edges(n, halves);
}

Graph debruijn_graph(const DeBruijnParams& params) {
  const std::uint64_t n = debruijn_num_nodes(params);
  const std::uint64_t m = params.base;
  std::vector<csr::HalfEdge>& halves = csr::emission_buffer();
  halves.reserve(static_cast<std::size_t>(n) * m * 2);
  auto emit = [&](std::uint64_t x, std::uint64_t y) {
    csr::emit_undirected(halves, static_cast<NodeId>(x), static_cast<NodeId>(y));
  };
  if (m >= n) {  // degenerate h = 1 shapes: fall back to the plain modulus
    for (std::uint64_t x = 0; x < n; ++x) {
      for (std::uint64_t r = 0; r < m; ++r) emit(x, (x * m + r) % n);
    }
  } else {
    // Fixed r, ascending x: y = X(x, m, r, n) advances by m per step, so the
    // modulus reduces to a conditional subtract — no division in the loop.
    // Emission order is irrelevant; the counting-sort CSR canonicalizes it.
    for (std::uint64_t r = 0; r < m; ++r) {
      std::uint64_t y = r;
      for (std::uint64_t x = 0; x < n; ++x) {
        emit(x, y);
        y += m;
        if (y >= n) y -= n;
      }
    }
  }
  return GraphBuilder::from_half_edges(n, halves);
}

Graph debruijn_base2(unsigned h) { return debruijn_graph({.base = 2, .digits = h}); }

Digraph debruijn_digraph(std::uint64_t m, unsigned h) {
  if (m < 2 || h < 1) throw std::invalid_argument("debruijn_digraph: need m >= 2, h >= 1");
  const std::uint64_t n = labels::ipow_checked(m, h);
  DigraphBuilder builder(n);
  builder.reserve_arcs(static_cast<std::size_t>(n) * m);
  for (std::uint64_t x = 0; x < n; ++x) {
    for (std::uint64_t r = 0; r < m; ++r) {
      builder.add_arc(static_cast<NodeId>(x), static_cast<NodeId>((x * m + r) % n));
    }
  }
  return std::move(builder).build();
}

std::vector<NodeId> debruijn_out_neighbors(const DeBruijnParams& params, NodeId x) {
  const std::uint64_t n = debruijn_num_nodes(params);
  std::vector<NodeId> out;
  out.reserve(params.base);
  for (std::uint64_t r = 0; r < params.base; ++r) {
    out.push_back(static_cast<NodeId>((static_cast<std::uint64_t>(x) * params.base + r) % n));
  }
  return out;
}

void debruijn_neighbors(const DeBruijnParams& params, NodeId x, std::vector<NodeId>& out) {
  const std::uint64_t n = debruijn_num_nodes(params);
  const std::uint64_t m = params.base;
  if (x >= n) throw std::out_of_range("debruijn_neighbors: node out of range");
  const std::uint64_t high = n / m;  // m^{h-1}
  out.clear();
  for (std::uint64_t r = 0; r < m; ++r) {
    out.push_back(static_cast<NodeId>((static_cast<std::uint64_t>(x) * m + r) % n));
    out.push_back(static_cast<NodeId>(r * high + x / m));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), x), out.end());
}

namespace {

// A cap of kUncapped (or above) means "full scan"; every scan seeds its best
// with cap + 1, so real distances (<= 2h <= 128) never collide with it.
constexpr std::uint32_t kUncapped = 0xFFFFFFFEu;
constexpr int kNoHint = std::numeric_limits<int>::min();

// Packed digit labels: index i (bit for base 2, nibble for 2 < m <= 16)
// holds the digit at MSB-first tape position q = h-1-i, i.e. the label's
// own bit order. Base-2 labels are already their packing; nibble packing
// costs one division chain and is then maintained incrementally by the
// stepper with a single shift per hop.
inline std::uint64_t pack_digits(std::uint64_t v, std::uint64_t m, int h) {
  std::uint64_t p = 0;
  for (int i = 0; i < h; ++i) {
    p |= (v % m) << (4 * i);
    v /= m;
  }
  return p;
}

// Collapse a nibble-granular mismatch mask to one bit per digit (bit 4*i).
inline std::uint64_t collapse_nibbles(std::uint64_t mm) {
  mm |= mm >> 2;
  mm |= mm >> 1;
  return mm & 0x1111111111111111ull;
}

struct ScanState {
  std::uint32_t best;
  int witness;
};

// Exact minimal walk cost over every split of one window offset f. O(1) for
// the common shapes: the mismatch set under f is one XOR + lane mask; the
// two extreme splits and the two edge-adjacent middle splits need only the
// two lowest/two highest mismatch positions (clz/ctz), and an interval lower
// bound over the remaining interior splits triggers the O(mismatch-count)
// extraction only when one of them could actually win — rare.
// Digits-per-index DB is 1 (bits) or 4 (nibbles).
template <int DB>
int packed_cost_at(std::uint64_t px, std::uint64_t py, int h, int f) {
  const int af = f < 0 ? -f : f;
  const int ilo = std::max(0, -f);
  const int ihi = std::min(h - 1, h - 1 - f);
  // f == ±h leaves no overlapping digits (ihi < ilo): the lane shift would be
  // 64 (UB), and the correct mismatch set is empty.
  std::uint64_t t = 0;
  if (ilo <= ihi) {
    const std::uint64_t lane = (~std::uint64_t{0} >> (63 - (ihi * DB + (DB - 1)))) &
                               (~std::uint64_t{0} << (ilo * DB));
    t = ((f >= 0) ? (px ^ (py >> (f * DB))) : (px ^ (py << (-f * DB)))) & lane;
    if (DB == 4) t = collapse_nibbles(t);
  }
  // Straight slide to offset f when every overlapping digit already agrees.
  if (t == 0) return af;
  const int base_max = f > 0 ? f : 0;
  const int base_min = f < 0 ? f : 0;
  // Highest bit index = lowest tape position and vice versa.
  const int top_i = 63 - __builtin_clzll(t);
  const int lo_q = h - 1 - top_i / DB;
  const int hi_q = h - 1 - __builtin_ctzll(t) / DB;
  const int c0 = 2 * (base_max - std::min(base_min, lo_q - h)) - af;
  const int cc = 2 * (std::max(base_max, hi_q + 1) - base_min) - af;
  int cand = std::min(c0, cc);
  const std::uint64_t t_no_top = t ^ (std::uint64_t{1} << top_i);
  if (t_no_top != 0) {  // >= 2 mismatches: the edge middle splits, O(1) each
    const std::uint64_t t_no_bot = t & (t - 1);
    const int q1 = h - 1 - (63 - __builtin_clzll(t_no_top)) / DB;   // 2nd-lowest tape
    const int qn2 = h - 1 - __builtin_ctzll(t_no_bot) / DB;         // 2nd-highest tape
    cand = std::min(cand, 2 * (std::max(base_max, lo_q + 1) - std::min(base_min, q1 - h)) - af);
    cand = std::min(cand, 2 * (std::max(base_max, qn2 + 1) - std::min(base_min, hi_q - h)) - af);
    if ((t_no_top & (t_no_top - 1)) != 0 && t_no_bot != t_no_top) {
      // >= 4 mismatches: interior splits exist. Every one has
      // walk_max >= q1+1 and walk_min <= qn2-h; extract positions only when
      // that bound beats the four exact splits above.
      const int lb_rest = 2 * (std::max(base_max, q1 + 1) - std::min(base_min, qn2 - h)) - af;
      if (lb_rest < cand) {
        std::array<int, 64> q;  // mismatch tape positions, ascending
        int c = 0;
        std::uint64_t mm = t;
        while (mm != 0) {
          const int i = 63 - __builtin_clzll(mm);
          q[static_cast<std::size_t>(c++)] = h - 1 - i / DB;
          mm &= ~(std::uint64_t{1} << i);
        }
        for (int j = 2; j < c - 1; ++j) {
          const int wm = std::max(base_max, q[static_cast<std::size_t>(j - 1)] + 1);
          const int wn = std::min(base_min, q[static_cast<std::size_t>(j)] - h);
          cand = std::min(cand, 2 * (wm - wn) - af);
        }
      }
    }
  }
  return cand;
}

int packed_cost_at(std::uint64_t px, std::uint64_t py, int h, int db, int f) {
  return db == 1 ? packed_cost_at<1>(px, py, h, f) : packed_cost_at<4>(px, py, h, f);
}

// Offsets in |f|-ascending order (0, 1, -1, 2, -2, ...): an offset costs at
// least |f| hops, so once |f| reaches the best known distance the remaining
// offsets cannot win. The hint offset is tried first; `floor_stop` is a
// caller-guaranteed lower bound on the true distance, so matching it proves
// optimality and exits (the triangle-inequality fast path: a neighbor probe
// hits dist-1 on the hinted offset and stops after one evaluation). Results
// <= cap are exact; anything above cap means "farther than cap".
//
// Parity skip: every candidate at offset f costs 2k - |f|, so its parity is
// |f|'s. When floor_stop == cap the caller has guaranteed d >= cap, so an
// offset whose parity differs from cap's can only yield candidates
// >= cap + 1 — it can neither succeed nor lower the running best. This
// halves the router's refutation probes ("is this neighbor NOT one hop
// closer").
//
// The best seeds at min(cap, h) + 1: the pure shift route bounds every
// de Bruijn distance by h, so even an uncapped scan can refuse offsets past
// |f| = h and still return the exact distance.
template <int DB>
std::uint32_t packed_distance_scan(std::uint64_t px, std::uint64_t py, int h,
                                   std::uint32_t cap, std::uint32_t floor_stop, int hint,
                                   int* witness) {
  ScanState e{std::min(cap, static_cast<std::uint32_t>(h)) + 1, 0};
  const bool parity_skip = floor_stop == cap;
  const std::uint32_t parity = cap & 1u;
  if (hint != kNoHint && hint >= -h && hint <= h &&
      !(parity_skip && static_cast<std::uint32_t>(std::abs(hint)) % 2u != parity)) {
    const int c = packed_cost_at<DB>(px, py, h, hint);
    if (static_cast<std::uint32_t>(c) < e.best) {
      e.best = static_cast<std::uint32_t>(c);
      e.witness = hint;
    }
    if (e.best <= floor_stop) {
      if (witness != nullptr) *witness = e.witness;
      return e.best;
    }
  } else {
    hint = kNoHint;
  }
  for (int step = 0; step <= 2 * h; ++step) {
    const int f = (step % 2 == 1) ? (step + 1) / 2 : -(step / 2);
    const std::uint32_t af = static_cast<std::uint32_t>(std::abs(f));
    if (af >= e.best) break;
    if (f == hint || (parity_skip && (af & 1u) != parity)) continue;
    const int c = packed_cost_at<DB>(px, py, h, f);
    if (static_cast<std::uint32_t>(c) < e.best) {
      e.best = static_cast<std::uint32_t>(c);
      e.witness = f;
    }
    if (e.best <= floor_stop) break;
  }
  if (witness != nullptr) *witness = e.witness;
  return e.best;
}

std::uint32_t packed_distance_scan(std::uint64_t px, std::uint64_t py, int h, int db,
                                   std::uint32_t cap, std::uint32_t floor_stop, int hint,
                                   int* witness) {
  return db == 1 ? packed_distance_scan<1>(px, py, h, cap, floor_stop, hint, witness)
                 : packed_distance_scan<4>(px, py, h, cap, floor_stop, hint, witness);
}

// Exact O(h^2) fallback for shapes outside the packed range (m > 16, or the
// nibble packing overflowing 64 bits). Same alignment/split math as the
// packed scan, digit arrays instead of masks.
std::uint32_t generic_distance_scan(std::uint64_t m, int h, std::uint64_t x, std::uint64_t y,
                                    std::uint32_t cap, int* witness) {
  // MSB-first digit strings: sx[q] is digit x_{h-1-q}. Uninitialized on
  // purpose — only the first h entries are ever written and read, and this
  // sits on the implicit router's per-hop path.
  std::array<std::uint32_t, 64> sx;
  std::array<std::uint32_t, 64> sy;
  {
    std::uint64_t a = x;
    std::uint64_t b = y;
    for (int q = h - 1; q >= 0; --q) {
      sx[static_cast<std::size_t>(q)] = static_cast<std::uint32_t>(a % m);
      a /= m;
      sy[static_cast<std::size_t>(q)] = static_cast<std::uint32_t>(b % m);
      b /= m;
    }
  }
  std::uint32_t best = std::min(cap, kUncapped) + 1;
  int wit = 0;
  std::array<int, 64> mismatches;
  for (int step = 0; step <= 2 * h; ++step) {
    const int f = (step % 2 == 1) ? (step + 1) / 2 : -(step / 2);
    if (static_cast<std::uint32_t>(std::abs(f)) >= best) break;
    // Tape positions both strings define under offset f, and the mismatches
    // among them (ascending).
    int count = 0;
    const int qlo = std::max(0, f);
    const int qhi = std::min(h - 1, h - 1 + f);
    for (int q = qlo; q <= qhi; ++q) {
      if (sx[static_cast<std::size_t>(q)] != sy[static_cast<std::size_t>(q - f)]) {
        mismatches[static_cast<std::size_t>(count++)] = q;
      }
    }
    // Every mismatch must leave the preserved interval [M, mu+h-1]: the first
    // j of them below it (M > q), the rest above it (mu <= q - h).
    const int base_max = std::max(0, f);
    const int base_min = std::min(0, f);
    for (int j = 0; j <= count; ++j) {
      int walk_max = base_max;
      int walk_min = base_min;
      if (j > 0) walk_max = std::max(walk_max, mismatches[static_cast<std::size_t>(j - 1)] + 1);
      if (j < count) walk_min = std::min(walk_min, mismatches[static_cast<std::size_t>(j)] - h);
      const int hops = 2 * (walk_max - walk_min) - std::abs(f);
      if (hops >= 0 && static_cast<std::uint32_t>(hops) < best) {
        best = static_cast<std::uint32_t>(hops);
        wit = f;
      }
    }
  }
  if (witness != nullptr) *witness = wit;
  return best;
}

// Bits per packed digit for the (m, h) shape: 1 (base-2 labels are their own
// packing), 4 (nibble packing), or 0 when only the generic scan applies.
inline int packed_digit_bits(std::uint64_t m, int h) {
  if (m == 2 && h <= 63) return 1;
  if (m <= 16 && h <= 16) return 4;
  return 0;
}

}  // namespace

std::uint32_t debruijn_distance(const DeBruijnParams& params, NodeId x, NodeId y) {
  return debruijn_distance_witness(params, x, y, nullptr);
}

std::uint32_t debruijn_distance_witness(const DeBruijnParams& params, NodeId x, NodeId y,
                                        DistanceWitness* witness) {
  const std::uint64_t n = debruijn_num_nodes(params);
  const std::uint64_t m = params.base;
  const int h = static_cast<int>(params.digits);
  if (x >= n || y >= n) throw std::out_of_range("debruijn_distance: node out of range");
  if (witness != nullptr) witness->offset = 0;
  if (x == y) return 0;
  const int db = packed_digit_bits(m, h);
  int* wit = witness != nullptr ? &witness->offset : nullptr;
  if (db == 1) return packed_distance_scan(x, y, h, 1, kUncapped, 0, kNoHint, wit);
  if (db == 4) {
    return packed_distance_scan(pack_digits(x, m, h), pack_digits(y, m, h), h, 4, kUncapped, 0,
                                kNoHint, wit);
  }
  return generic_distance_scan(m, h, x, y, kUncapped, wit);
}

std::uint32_t debruijn_distance_step(const DeBruijnParams& params, NodeId x, NodeId x_next,
                                     NodeId y, std::uint32_t dist, DistanceWitness* witness) {
  DebruijnDistanceStepper stepper(params, y);
  stepper.seed(x, dist, witness != nullptr ? *witness : DistanceWitness{});
  const std::uint32_t d = stepper.step(x_next);
  if (witness != nullptr) *witness = stepper.witness();
  return d;
}

int debruijn_neighbors_fixed(const DeBruijnParams& params, NodeId x, NodeId* out, int capacity) {
  const std::uint64_t n = debruijn_num_nodes(params);
  const std::uint64_t m = params.base;
  if (x >= n) throw std::out_of_range("debruijn_neighbors_fixed: node out of range");
  if (capacity < 0 || static_cast<std::uint64_t>(capacity) < 2 * m) {
    throw std::invalid_argument("debruijn_neighbors_fixed: capacity < 2*m");
  }
  const std::uint64_t high = n / m;  // m^{h-1}
  int count = 0;
  // Insertion sort with dedup: degree <= 2m <= 8 on the packed shapes, so
  // this beats sort+unique+remove on a heap vector by a wide margin.
  auto push = [&](std::uint64_t w) {
    if (w == x) return;
    const NodeId id = static_cast<NodeId>(w);
    int i = count;
    while (i > 0 && out[i - 1] > id) --i;
    if (i > 0 && out[i - 1] == id) return;
    for (int j = count; j > i; --j) out[j] = out[j - 1];
    out[i] = id;
    ++count;
  };
  for (std::uint64_t r = 0; r < m; ++r) {
    push((static_cast<std::uint64_t>(x) * m + r) % n);
    push(r * high + x / m);
  }
  return count;
}

DebruijnDistanceStepper::DebruijnDistanceStepper(const DeBruijnParams& params, NodeId dest)
    : params_(params), dest_(dest) {
  n_ = debruijn_num_nodes(params);
  if (dest >= n_) throw std::out_of_range("DebruijnDistanceStepper: dest out of range");
  h_ = static_cast<int>(params.digits);
  high_ = n_ / params.base;
  db_ = packed_digit_bits(params.base, h_);
  if (db_ == 1) {
    mode_ = Mode::kBits;
    py_ = dest;
  } else if (db_ == 4) {
    mode_ = Mode::kNibbles;
    py_ = pack_digits(dest, params.base, h_);
  } else {
    mode_ = Mode::kGeneric;
    db_ = 1;
  }
  lane_ = (h_ * db_ >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << (h_ * db_)) - 1);
  use_opt_ = mode_ != Mode::kGeneric && h_ <= 31;
}

// Collect {f : cost(f) == dist_} exactly: every member has |f| <= min(dist_,
// h) and |f|'s parity equal to dist_'s (each candidate costs 2k - |f|), so
// the sweep touches about dist_/2 offsets, each O(1).
void DebruijnDistanceStepper::collect_opt() const {
  opt_ = 0;
  const int d = static_cast<int>(dist_);
  const int fmax = std::min(d, h_);
  for (int f = -fmax + ((fmax ^ d) & 1); f <= fmax; f += 2) {
    if (packed_cost_at(px_, py_, h_, db_, f) == d) opt_ |= std::uint64_t{1} << (f + h_);
  }
  opt_valid_ = true;
}

void DebruijnDistanceStepper::retarget(NodeId dest) {
  if (dest >= n_) throw std::out_of_range("DebruijnDistanceStepper: dest out of range");
  dest_ = dest;
  if (mode_ != Mode::kGeneric) {
    py_ = (mode_ == Mode::kBits) ? dest : pack_digits(dest, params_.base, h_);
  }
  node_ = kInvalidNode;
  opt_valid_ = false;
  near_valid_ = false;
}

std::uint32_t DebruijnDistanceStepper::reset(NodeId node) {
  if (node >= n_) throw std::out_of_range("DebruijnDistanceStepper: node out of range");
  node_ = node;
  wit_.offset = 0;
  opt_valid_ = false;
  near_valid_ = false;
  if (mode_ == Mode::kGeneric) {
    dist_ = (node == dest_) ? 0 : generic_distance_scan(params_.base, h_, node, dest_, kUncapped,
                                                        &wit_.offset);
    return dist_;
  }
  px_ = (mode_ == Mode::kBits) ? node : pack_digits(node, params_.base, h_);
  dist_ = packed_distance_scan(px_, py_, h_, db_, kUncapped, 0, kNoHint, &wit_.offset);
  return dist_;
}

void DebruijnDistanceStepper::seed(NodeId node, std::uint32_t dist, const DistanceWitness& witness) {
  if (node >= n_) throw std::out_of_range("DebruijnDistanceStepper: node out of range");
  node_ = node;
  dist_ = dist;
  wit_ = witness;
  opt_valid_ = false;
  near_valid_ = false;
  if (mode_ != Mode::kGeneric) {
    px_ = (mode_ == Mode::kBits) ? node : pack_digits(node, params_.base, h_);
  }
}

void DebruijnDistanceStepper::seed_opt(NodeId node, std::uint32_t dist,
                                       const DistanceWitness& witness, std::uint64_t opt) {
  seed(node, dist, witness);
  opt_ = opt;
  opt_valid_ = use_opt_ && opt != 0;
}

DebruijnDistanceStepper::Neighbor DebruijnDistanceStepper::derive(NodeId neighbor) const {
  const std::uint64_t w = neighbor;
  const std::uint64_t m = params_.base;
  // Left shift: w == (node*m + r) mod n slides the digit window up, so the
  // winning offset for w is the current one minus 1; right shift the
  // opposite. Either derivation yields w's own packed label, so ties (a
  // neighbor reachable both ways) can take the first match.
  const std::uint64_t lm = (static_cast<std::uint64_t>(node_) * m) % n_;
  const std::uint64_t r_left = (w + n_ - lm) % n_;
  if (r_left < m) {
    return {((px_ << db_) & lane_) | r_left, wit_.offset - 1};
  }
  const std::uint64_t r_right = w / high_;
  if (r_right < m && w - r_right * high_ == static_cast<std::uint64_t>(node_) / m) {
    return {(px_ >> db_) | (r_right << (db_ * (h_ - 1))), wit_.offset + 1};
  }
  throw std::invalid_argument("DebruijnDistanceStepper: not an algebraic neighbor");
}

std::uint32_t DebruijnDistanceStepper::step(NodeId neighbor) {
  opt_valid_ = false;
  near_valid_ = false;
  if (mode_ == Mode::kGeneric) {
    node_ = neighbor;
    dist_ = (neighbor == dest_) ? 0 : generic_distance_scan(params_.base, h_, neighbor, dest_,
                                                            kUncapped, &wit_.offset);
    return dist_;
  }
  const Neighbor nb = derive(neighbor);
  const std::uint32_t floor_stop = dist_ > 0 ? dist_ - 1 : 0;
  // The cap dist_+1 never truncates: a neighbor is at most one hop farther.
  dist_ = packed_distance_scan(nb.packed, py_, h_, db_, dist_ + 1, floor_stop, nb.hint,
                               &wit_.offset);
  node_ = neighbor;
  px_ = nb.packed;
  return dist_;
}

std::uint32_t DebruijnDistanceStepper::probe(NodeId neighbor, std::uint32_t cap) const {
  return probe_witness(neighbor, cap, nullptr);
}

std::uint32_t DebruijnDistanceStepper::probe_witness(NodeId neighbor, std::uint32_t cap,
                                                     DistanceWitness* witness) const {
  if (mode_ == Mode::kGeneric) {
    if (witness != nullptr) witness->offset = 0;
    return (neighbor == dest_) ? 0 : generic_distance_scan(params_.base, h_, neighbor, dest_, cap,
                                                           witness != nullptr ? &witness->offset
                                                                              : nullptr);
  }
  const Neighbor nb = derive(neighbor);
  const std::uint32_t floor_stop = dist_ > 0 ? dist_ - 1 : 0;
  return packed_distance_scan(nb.packed, py_, h_, db_, cap, floor_stop, nb.hint,
                              witness != nullptr ? &witness->offset : nullptr);
}

void DebruijnDistanceStepper::advance(NodeId neighbor, std::uint32_t dist,
                                      const DistanceWitness& witness) {
  if (mode_ != Mode::kGeneric) px_ = derive(neighbor).packed;
  node_ = neighbor;
  dist_ = dist;
  wit_ = witness;
  opt_valid_ = false;
  near_valid_ = false;
}

int DebruijnDistanceStepper::probe_neighbors(ProbeNeighbor* out) const {
  const std::uint64_t m = params_.base;
  int count = 0;
  // Insertion sort with dedup, like debruijn_neighbors_fixed. A node
  // reachable as both a left and a right shift has one packed label (the
  // packing is a function of the id), so the first derivation wins and its
  // hint stays valid.
  auto push = [&](std::uint64_t w, std::uint64_t packed, int hint, int dir) {
    if (w == node_) return;
    const NodeId id = static_cast<NodeId>(w);
    int i = count;
    while (i > 0 && out[i - 1].id > id) --i;
    if (i > 0 && out[i - 1].id == id) return;
    for (int j = count; j > i; --j) out[j] = out[j - 1];
    out[i] = {id, packed, hint, dir};
    ++count;
  };
  const std::uint64_t slid = (static_cast<std::uint64_t>(node_) * m) % n_;
  const std::uint64_t down = static_cast<std::uint64_t>(node_) / m;
  const std::uint64_t pxl = (px_ << db_) & lane_;
  const std::uint64_t pxr = px_ >> db_;
  const int top = db_ * (h_ - 1);
  for (std::uint64_t r = 0; r < m; ++r) {
    std::uint64_t wl = slid + r;  // < n + m <= 2n: one conditional subtract
    if (wl >= n_) wl -= n_;
    push(wl, pxl | r, wit_.offset - 1, -1);
    push(r * high_ + down, pxr | (r << top), wit_.offset + 1, +1);
  }
  return count;
}

std::uint32_t DebruijnDistanceStepper::probe_pre(const ProbeNeighbor& nb, std::uint32_t cap,
                                                 DistanceWitness* witness,
                                                 std::uint64_t* opt_out) const {
  if (opt_out != nullptr) *opt_out = 0;
  if (mode_ == Mode::kGeneric) {
    if (witness != nullptr) witness->offset = 0;
    return (nb.id == dest_) ? 0 : generic_distance_scan(params_.base, h_, nb.id, dest_, cap,
                                                        witness != nullptr ? &witness->offset
                                                                           : nullptr);
  }
  if (use_opt_ && dist_ > 0 && cap == dist_ - 1) {
    // Refutation probe: is this neighbor exactly one hop closer? A shortest
    // walk for the neighbor at offset f, extended by the edge back to the
    // current node, is a walk for the current node at offset f + dir with
    // one more hop — so cost_nb(f) >= cost_node(f + dir) - 1, and the
    // neighbor can hit dist-1 only at offsets adjacent (against dir) to the
    // current optimal set. Evaluate exactly those (empirically ~1); the
    // evaluations double as the neighbor's own optimal set at dist-1, which
    // is complete because the true set is contained in the candidates.
    if (!opt_valid_) collect_opt();
    std::uint64_t cands = nb.dir < 0 ? (opt_ >> 1) : (opt_ << 1);
    const int target = static_cast<int>(dist_) - 1;
    std::uint64_t hits = 0;
    int first_f = 0;
    while (cands != 0) {
      const int idx = __builtin_ctzll(cands);
      cands &= cands - 1;
      const int f = idx - h_;
      if (f < -target || f > target) continue;
      if (packed_cost_at(nb.packed, py_, h_, db_, f) == target) {
        if (hits == 0) first_f = f;
        hits |= std::uint64_t{1} << idx;
      }
    }
    if (hits != 0) {
      if (witness != nullptr) witness->offset = first_f;
      if (opt_out != nullptr) *opt_out = hits;
      return static_cast<std::uint32_t>(target);
    }
    return cap + 1;
  }
  const std::uint32_t floor_stop = dist_ > 0 ? dist_ - 1 : 0;
  return packed_distance_scan(nb.packed, py_, h_, db_, cap, floor_stop, nb.hint,
                              witness != nullptr ? &witness->offset : nullptr);
}

void DebruijnDistanceStepper::advance_pre(const ProbeNeighbor& nb, std::uint32_t dist,
                                          const DistanceWitness& witness, std::uint64_t opt) {
  if (mode_ != Mode::kGeneric) px_ = nb.packed;
  node_ = nb.id;
  dist_ = dist;
  wit_ = witness;
  opt_ = opt;
  opt_valid_ = use_opt_ && opt != 0;
  near_valid_ = false;
}

// Collect {f : cost(f) == dist_ + 1}: every member has |f| <= dist_ + 1 and
// the parity of dist_ + 1, so about dist_ + 2 evaluations.
void DebruijnDistanceStepper::collect_near() const {
  near_ = 0;
  const int d = static_cast<int>(dist_) + 1;
  const int fmax = std::min(d, h_);
  for (int f = -fmax + ((fmax ^ d) & 1); f <= fmax; f += 2) {
    if (packed_cost_at(px_, py_, h_, db_, f) == d) near_ |= std::uint64_t{1} << (f + h_);
  }
  near_valid_ = true;
}

std::uint32_t DebruijnDistanceStepper::probe_adjacent(NodeId neighbor, std::uint32_t floor,
                                                      std::uint32_t cap,
                                                      DistanceWitness* witness) const {
  if (!use_opt_ || dist_ == 0) return probe_witness(neighbor, cap, witness);
  const int r = static_cast<int>(dist_);
  // The neighbor sits in [lo, top]: one hop either way, the caller's floor,
  // and the pure-shift bound h on every distance.
  const int top = r < h_ ? r + 1 : r;
  const int lo = std::max(r - 1, static_cast<int>(std::min<std::uint32_t>(floor, dist_ + 1)));
  const int c = static_cast<int>(std::min<std::uint32_t>(cap, dist_ + 1));
  const Neighbor nb = derive(neighbor);
  const int dir = nb.hint - wit_.offset;  // -1: left shift, +1: right shift
  // The neighbor's cost at offset f is the current node's cost at f - dir
  // plus or minus one (the parity flips with |f|), so it reaches r - 1 only
  // next to an optimal offset and r only next to a near-optimal one (cost
  // r + 1); everywhere else it pays r + 1.
  const auto first_hit = [&](std::uint64_t mask, int target) {
    std::uint64_t cands = dir < 0 ? (mask >> 1) : (mask << 1);
    while (cands != 0) {
      const int f = __builtin_ctzll(cands) - h_;
      cands &= cands - 1;
      if (f >= -target && f <= target && packed_cost_at(nb.packed, py_, h_, db_, f) == target) {
        if (witness != nullptr) witness->offset = f;
        return true;
      }
    }
    return false;
  };
  if (lo <= r - 1 && c >= r - 1) {
    if (!opt_valid_) {
      // A hinted offset that already proves r - 1 (the common "one hop
      // closer" answer when the witness is optimal) needs no mask.
      if (std::abs(nb.hint) <= r - 1 && packed_cost_at(nb.packed, py_, h_, db_, nb.hint) == r - 1) {
        if (witness != nullptr) witness->offset = nb.hint;
        return dist_ - 1;
      }
      collect_opt();
    }
    if (first_hit(opt_, r - 1)) return dist_ - 1;
  }
  if (lo <= r && c >= r && r < top) {
    if (!near_valid_) collect_near();
    if (first_hit(near_, r)) return dist_;
  }
  // Every value below top that the window allows has been refuted. At
  // distance() + 1 each optimal offset moved with the hop is optimal for the
  // neighbor; otherwise the witness is only a hint.
  if (witness != nullptr) {
    witness->offset =
        opt_valid_ && opt_ != 0 ? __builtin_ctzll(opt_) - h_ + dir : nb.hint;
  }
  return c >= top ? static_cast<std::uint32_t>(top) : static_cast<std::uint32_t>(c) + 1;
}

std::uint64_t debruijn_exact_root(std::uint64_t n, unsigned h) {
  if (n < 2 || h == 0) return 0;
  const std::uint64_t guess = static_cast<std::uint64_t>(
      std::llround(std::pow(static_cast<double>(n), 1.0 / static_cast<double>(h))));
  for (std::uint64_t cand = (guess > 3 ? guess - 1 : 2); cand <= guess + 1; ++cand) {
    std::uint64_t p = 1;
    bool overflow = false;
    for (unsigned i = 0; i < h; ++i) {
      if (p > n / cand) {
        overflow = true;
        break;
      }
      p *= cand;
    }
    if (!overflow && p == n) return cand;
  }
  return 0;
}

std::optional<DeBruijnParams> debruijn_shape_of(const Graph& g) {
  const std::uint64_t n = g.num_nodes();
  if (n < 2) return std::nullopt;
  std::vector<NodeId> expected;
  for (unsigned h = 1; h < 64; ++h) {
    const std::uint64_t m = debruijn_exact_root(n, h);
    if (m == 0) {
      if (n >> h == 0) break;  // even m = 2 no longer fits
      continue;
    }
    const DeBruijnParams params{.base = m, .digits = h};
    bool match = true;
    for (std::uint64_t x = 0; x < n && match; ++x) {
      debruijn_neighbors(params, static_cast<NodeId>(x), expected);
      const auto actual = g.neighbors(static_cast<NodeId>(x));
      match = actual.size() == expected.size() &&
              std::equal(actual.begin(), actual.end(), expected.begin());
    }
    if (match) return params;
  }
  return std::nullopt;
}

}  // namespace ftdb
