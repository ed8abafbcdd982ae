#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace ftdb::sim {

PacketSimulator::PacketSimulator(const Machine& machine, const Graph& target)
    : PacketSimulator(machine, target, make_router(machine.live_logical_graph(target))) {}

PacketSimulator::PacketSimulator(const Machine& machine, const Graph& target,
                                 std::unique_ptr<Router> router)
    : machine_(&machine), live_(machine.live_logical_graph(target)), router_(std::move(router)) {
  if (router_->num_nodes() != live_.num_nodes()) {
    throw std::invalid_argument("PacketSimulator: router and live graph differ in node count");
  }
  // Directed link ids: per node, one queue per (sorted) neighbor.
  const std::size_t n = live_.num_nodes();
  link_base_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    link_base_[v + 1] = link_base_[v] + live_.degree(static_cast<NodeId>(v));
  }
  const std::size_t links = link_base_[n];
  link_to_.reserve(links);
  for (std::size_t v = 0; v < n; ++v) {
    for (const NodeId w : live_.neighbors(static_cast<NodeId>(v))) link_to_.push_back(w);
  }
  queues_.resize(links);
  active_.assign((links + 63) / 64, 0);
}

std::size_t PacketSimulator::link_id(NodeId from, NodeId to) const {
  const auto nb = live_.neighbors(from);
  const auto it = std::lower_bound(nb.begin(), nb.end(), to);
  if (it == nb.end() || *it != to) {
    // A hop outside the live adjacency means the router and the live graph
    // disagree; indexing by the lower_bound position would push the packet
    // onto an arbitrary neighbor's queue (or one past the slab).
    assert(false && "engine: next hop is not a live neighbor");
    throw std::logic_error("engine: next hop " + std::to_string(to) +
                           " is not a live neighbor of " + std::to_string(from));
  }
  return link_base_[from] + static_cast<std::size_t>(it - nb.begin());
}

bool PacketSimulator::node_live(NodeId logical) const {
  return logical < machine_->num_logical() && !machine_->dead[machine_->to_physical[logical]];
}

void PacketSimulator::push(std::size_t link, const InFlight& pkt) {
  std::uint32_t s = free_slot_;
  if (s != kNil) {
    free_slot_ = slots_[s].next;
    slots_[s] = Slot{pkt, kNil};
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{pkt, kNil});
  }
  LinkQueue& q = queues_[link];
  if (q.size++ == 0) {
    q.head = s;
    active_[link / 64] |= std::uint64_t{1} << (link % 64);
  } else {
    slots_[q.tail].next = s;
  }
  q.tail = s;
  pushed_.push_back(link);
}

void PacketSimulator::clear_queues() {
  for (std::size_t w = 0; w < active_.size(); ++w) {
    for (std::uint64_t bits = active_[w]; bits != 0; bits &= bits - 1) {
      queues_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] = LinkQueue{};
    }
    active_[w] = 0;
  }
  slots_.clear();
  free_slot_ = kNil;
}

SimStats PacketSimulator::run(const std::vector<Packet>& packets, std::uint64_t max_cycles) {
  SimStats stats;
  clear_queues();         // a truncated previous run may have left stragglers
  route_batch_.clear();   // likewise a run abandoned mid-flush
  pushed_.clear();

  sorted_.assign(packets.begin(), packets.end());
  std::stable_sort(sorted_.begin(), sorted_.end(), [](const Packet& a, const Packet& b) {
    return a.inject_cycle < b.inject_cycle;
  });

  std::size_t next_packet = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t cycle = 0;

  // Batched forwarding: each wave gathers its queries, resolves them with a
  // single route_many call, and enqueues in gathering order — identical
  // queue contents to a scalar next_hop loop.
  auto enqueue_towards = [&](NodeId at, const InFlight& pkt) {
    route_batch_.emplace_back(at, pkt);
  };
  auto flush_enqueues = [&] {
    if (route_batch_.empty()) return;
    const std::size_t k = route_batch_.size();
    route_dests_.resize(k);
    route_nodes_.resize(k);
    route_hops_.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      route_dests_[i] = route_batch_[i].second.dst;
      route_nodes_[i] = route_batch_[i].first;
    }
    router_->route_many(route_dests_, route_nodes_, route_hops_);
    for (std::size_t i = 0; i < k; ++i) {
      push(link_id(route_batch_[i].first, route_hops_[i]), route_batch_[i].second);
    }
    route_batch_.clear();
  };

  while (true) {
    const bool pending = next_packet < sorted_.size();
    if (!pending && in_flight == 0) break;
    if (max_cycles != 0 && cycle >= max_cycles) break;

    // Inject this cycle's packets.
    while (next_packet < sorted_.size() && sorted_[next_packet].inject_cycle <= cycle) {
      const Packet& p = sorted_[next_packet++];
      ++stats.injected;
      if (!node_live(p.src) || !node_live(p.dst) || !router_->reachable(p.dst, p.src)) {
        ++stats.undeliverable;
        continue;
      }
      if (p.src == p.dst) {
        ++stats.delivered;
        continue;  // zero-latency self-delivery
      }
      enqueue_towards(p.src, InFlight{p.id, p.inject_cycle, p.dst, 0});
      ++in_flight;
    }
    flush_enqueues();

    // Phase 1: every non-empty directed link forwards its head packet, in
    // ascending link order. Nothing is pushed during this phase, so each
    // bitmap word can be walked from a copy.
    arrivals_.clear();
    for (std::size_t w = 0; w < active_.size(); ++w) {
      for (std::uint64_t bits = active_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t l = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        LinkQueue& q = queues_[l];
        const std::uint32_t s = q.head;
        InFlight pkt = slots_[s].pkt;
        q.head = slots_[s].next;
        slots_[s].next = free_slot_;
        free_slot_ = s;
        if (--q.size == 0) active_[w] &= ~(std::uint64_t{1} << (l % 64));
        ++pkt.hops;
        arrivals_.emplace_back(link_to_[l], pkt);
      }
    }

    // Phase 2: arrivals either complete or queue for their next hop.
    for (auto& [at, pkt] : arrivals_) {
      if (at == pkt.dst) {
        --in_flight;
        ++stats.delivered;
        const std::uint64_t latency = cycle + 1 - pkt.inject_cycle;
        stats.total_latency += latency;
        stats.max_latency = std::max(stats.max_latency, latency);
        stats.total_hops += pkt.hops;
      } else {
        enqueue_towards(at, pkt);
      }
    }
    flush_enqueues();

    // Only a link pushed this cycle can exceed its depth at the end of the
    // previous cycle, so these are the only candidates for a new maximum.
    for (const std::size_t l : pushed_) {
      stats.max_queue_depth = std::max<std::size_t>(stats.max_queue_depth, queues_[l].size);
    }
    pushed_.clear();
    ++cycle;
  }
  // Every injected packet is on exactly one queue when max_cycles cut the
  // loop short (arrivals are fully drained each cycle), so the in-flight
  // count is precisely the timed-out population.
  stats.timed_out = in_flight;
  stats.cycles = cycle;
  assert(stats.injected == stats.delivered + stats.undeliverable + stats.timed_out);
  return stats;
}

SimStats run_packets(const Machine& machine, const Graph& target,
                     const std::vector<Packet>& packets, const EngineOptions& options) {
  PacketSimulator sim(machine, target);
  return sim.run(packets, options.max_cycles);
}

bool runs_as_target(const Machine& machine, bool presents_target, const Graph& target) {
  assert(presents_target == machine.presents(target));
  if (!presents_target || machine.num_logical() < target.num_nodes()) return false;
  for (NodeId x = 0; x < target.num_nodes(); ++x) {
    if (machine.dead[machine.to_physical[x]]) return false;
  }
  return true;
}

}  // namespace ftdb::sim
