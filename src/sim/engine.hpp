// Synchronous store-and-forward network engine.
//
// Time advances in cycles; each directed link moves at most one packet per
// cycle; packets queue FIFO at their next output link. This is the standard
// abstract machine for constant-degree network papers of the era, and it is
// what the PERF2/PERF3 experiments run on: a degraded bare target vs a
// reconfigured fault-tolerant machine under identical traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"
#include "sim/routing.hpp"

namespace ftdb::sim {

struct Packet {
  std::uint64_t id = 0;
  NodeId src = 0;   // logical
  NodeId dst = 0;   // logical
  std::uint64_t inject_cycle = 0;
};

struct SimStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t undeliverable = 0;  // no live route existed at injection time
  std::uint64_t timed_out = 0;      // still in flight when max_cycles stopped the run
  std::uint64_t cycles = 0;
  std::uint64_t total_latency = 0;   // sum over delivered packets
  std::uint64_t max_latency = 0;
  std::uint64_t total_hops = 0;
  std::size_t max_queue_depth = 0;

  double average_latency() const {
    return delivered == 0 ? 0.0 : static_cast<double>(total_latency) / static_cast<double>(delivered);
  }
  double average_hops() const {
    return delivered == 0 ? 0.0 : static_cast<double>(total_hops) / static_cast<double>(delivered);
  }
  double delivered_fraction() const {
    return injected == 0 ? 1.0 : static_cast<double>(delivered) / static_cast<double>(injected);
  }
  double throughput() const {
    return cycles == 0 ? 0.0 : static_cast<double>(delivered) / static_cast<double>(cycles);
  }
};

struct EngineOptions {
  /// Stop after this many cycles even if packets remain (0 = run to drain).
  /// Packets still in flight at the cut count as SimStats::timed_out, so
  /// injected == delivered + undeliverable + timed_out holds unconditionally.
  std::uint64_t max_cycles = 0;
};

/// Reusable simulation context for one machine: the live logical graph, its
/// router, and the per-link queue slab are built once and reused across
/// run() calls. This is what collective-schedule execution leans on — a
/// log-round schedule steps the same machine many times, and rebuilding the
/// router per round would dominate the measurement.
///
/// The kernel works in proportion to the packets it moves, not to the size of
/// the machine. Directed links are numbered per node in sorted-neighbor order,
/// and each link's far endpoint is stored once at construction. Every queued
/// packet sits in one shared slot pool, and each link's FIFO is a chain
/// through it, so memory follows the packets in flight rather than the
/// deepest each link ever got. A bitmap marks the non-empty links; each cycle
/// forwards from the set bits in ascending link order, which is the order a
/// scan of every link would visit them, so arrival order and every statistic
/// match that scan exactly. The peak queue depth is read only from links
/// pushed in the cycle: a link that was not pushed only shrank, so it cannot
/// raise the running maximum.
///
/// The live logical graph is routed by make_router(), which sends healthy
/// (and dilation-1 reconfigured) de Bruijn / shuffle-exchange machines from
/// 2^12 nodes up through the O(1)-memory implicit router, so simulations
/// scale to N where a table slab would be gigabytes.
class PacketSimulator {
 public:
  PacketSimulator(const Machine& machine, const Graph& target);

  /// Runs over a prebuilt `router` of the live logical graph instead of
  /// make_router()'s pick, so a test can substitute the backend. Throws
  /// std::invalid_argument when the router's node count differs from the
  /// live graph's.
  PacketSimulator(const Machine& machine, const Graph& target, std::unique_ptr<Router> router);

  /// Runs one batch of logical packets to completion (or to max_cycles).
  /// Queues are drained/reset between runs, so successive batches are
  /// independent synchronous phases.
  SimStats run(const std::vector<Packet>& packets, std::uint64_t max_cycles = 0);

  const Graph& live_graph() const { return live_; }
  const Router& router() const { return *router_; }
  std::size_t num_logical() const { return machine_->num_logical(); }

 private:
  struct InFlight {  // 24 bytes, so a pool Slot is 32
    std::uint64_t id = 0;
    std::uint64_t inject_cycle = 0;
    NodeId dst = 0;
    std::uint32_t hops = 0;
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// A queued packet in the shared pool, chained to the next one of its link.
  struct Slot {
    InFlight pkt;
    std::uint32_t next = kNil;
  };

  /// One directed link's FIFO: a chain of pool slots, oldest first.
  struct LinkQueue {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t size = 0;
  };

  /// Directed link id of the (from -> to) live edge. Fails loudly (assert in
  /// debug, std::logic_error in release) when `to` is not a live neighbor of
  /// `from` — a misrouted hop must never silently corrupt a sibling queue.
  std::size_t link_id(NodeId from, NodeId to) const;

  bool node_live(NodeId logical) const;
  void push(std::size_t link, const InFlight& pkt);
  /// Empties every queue (a truncated run leaves packets behind) and the pool.
  void clear_queues();

  const Machine* machine_ = nullptr;
  Graph live_;
  std::unique_ptr<Router> router_;
  std::vector<std::size_t> link_base_;
  std::vector<NodeId> link_to_;              // far endpoint of each link
  std::vector<LinkQueue> queues_;
  std::vector<Slot> slots_;                  // every queued packet, all links
  std::uint32_t free_slot_ = kNil;           // chain of reusable slots
  std::vector<std::uint64_t> active_;        // bit l set iff queues_[l] is non-empty
  std::vector<std::size_t> pushed_;          // links pushed this cycle (may repeat)
  std::vector<Packet> sorted_;
  std::vector<std::pair<NodeId, InFlight>> arrivals_;
  // Per-cycle batched-routing scratch: the injection wave and the phase-2
  // arrival wave each gather their (dst, at) queries and resolve them with
  // one route_many call, preserving enqueue order exactly — hop-for-hop the
  // stats match the scalar loop, but the implicit backend amortizes its
  // incremental state across the whole wave.
  std::vector<std::pair<NodeId, InFlight>> route_batch_;
  std::vector<NodeId> route_dests_;
  std::vector<NodeId> route_nodes_;
  std::vector<NodeId> route_hops_;
};

/// Runs a batch of logical packets over the machine's *live* logical topology
/// (physical links between live nodes, viewed logically). Routes are canonical
/// shortest paths on that live graph (sim/router.hpp), stepped per-hop at
/// forwarding time. Packets whose endpoints are dead or disconnected count as
/// undeliverable — this is how the fragility of the bare target materializes,
/// while a reconfigured FT machine always presents the full target graph.
/// The accounting invariant injected == delivered + undeliverable + timed_out
/// holds on every return path, including max_cycles truncation.
SimStats run_packets(const Machine& machine, const Graph& target,
                     const std::vector<Packet>& packets, const EngineOptions& options = {});

/// True when the engine runs `machine` exactly as it runs the healthy
/// Machine::direct(target), so a PacketSimulator over the healthy machine can
/// stand in for one over `machine`. The engine depends on a machine through
/// three inputs only: the live logical graph, the router built from it, and
/// node liveness. A machine that presents the target edge for edge has the
/// target itself as its live graph (live_logical_graph keeps exactly the
/// target edges that are up), hence the same router; when every target node
/// is also alive, all three inputs equal the healthy machine's.
/// `presents_target` must equal machine.presents(target) — passed in so a
/// caller that already made the O(E) edge check does not repeat it.
bool runs_as_target(const Machine& machine, bool presents_target, const Graph& target);

}  // namespace ftdb::sim
