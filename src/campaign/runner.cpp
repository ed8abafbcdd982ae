#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/bench_json.hpp"
#include "campaign/fault_models.hpp"
#include "campaign/rng.hpp"
#include "ft/bus_ft.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/spares.hpp"
#include "ft/tolerance.hpp"
#include "graph/algorithms.hpp"
#include "graph/bus_graph.hpp"
#include "graph/subgraph.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/reconfigured_routing.hpp"
#include "sim/schedule.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::campaign {

using analysis::JsonValue;
using analysis::JsonWriter;

// --- streaming statistics ---------------------------------------------------

void StreamingStats::add(double x) {
  ++count;
  const double delta = x - mean;
  mean += delta / static_cast<double>(count);
  m2 += delta * (x - mean);
  min = std::min(min, x);
  max = std::max(max, x);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  // Chan's pairwise update; merge order is fixed by the runner.
  const double total = static_cast<double>(count) + static_cast<double>(other.count);
  const double delta = other.mean - mean;
  mean += delta * (static_cast<double>(other.count) / total);
  m2 += other.m2 +
        delta * delta * (static_cast<double>(count) * static_cast<double>(other.count) / total);
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

double StreamingStats::variance() const {
  return count < 2 ? 0.0 : m2 / static_cast<double>(count - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials, double z) {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = phat + z2 / (2.0 * n);
  const double half = z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, (center - half) / denom), std::min(1.0, (center + half) / denom)};
}

double ScenarioResult::success_rate() const {
  return trials == 0 ? 0.0
                     : static_cast<double>(reconfig_success) / static_cast<double>(trials);
}

WilsonInterval ScenarioResult::success_ci(double z) const {
  return wilson_interval(reconfig_success, trials, z);
}

void ScenarioResult::merge(const ScenarioResult& other) {
  trials += other.trials;
  reconfig_success += other.reconfig_success;
  over_budget += other.over_budget;
  fault_count.merge(other.fault_count);
  reconfigured_diameter.merge(other.reconfigured_diameter);
  degraded_diameter.merge(other.degraded_diameter);
  degraded_disconnected += other.degraded_disconnected;
  route_stretch.merge(other.route_stretch);
  mttf.merge(other.mttf);
  mttf_censored += other.mttf_censored;
  collective_slowdown.merge(other.collective_slowdown);
  collective_hop_cycles.merge(other.collective_hop_cycles);
  collective_congestion.merge(other.collective_congestion);
  collective_unreachable += other.collective_unreachable;
  bus_fault_count.merge(other.bus_fault_count);
  traffic_delivered.merge(other.traffic_delivered);
  traffic_latency.merge(other.traffic_latency);
  traffic_congestion.merge(other.traffic_congestion);
  traffic_timed_out += other.traffic_timed_out;
  // Merge the sorted sparse slowdown curves (the runner merges blocks in
  // order, so the slowdown_sum additions happen in a fixed order and the
  // doubles come out bit-identical for any thread count or cell split).
  std::vector<SlowdownPoint> merged_slowdown;
  merged_slowdown.reserve(slowdown_curve.size() + other.slowdown_curve.size());
  {
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < slowdown_curve.size() || j < other.slowdown_curve.size()) {
      if (j == other.slowdown_curve.size() ||
          (i < slowdown_curve.size() &&
           slowdown_curve[i].faults < other.slowdown_curve[j].faults)) {
        merged_slowdown.push_back(slowdown_curve[i++]);
      } else if (i == slowdown_curve.size() ||
                 other.slowdown_curve[j].faults < slowdown_curve[i].faults) {
        merged_slowdown.push_back(other.slowdown_curve[j++]);
      } else {
        SlowdownPoint p = slowdown_curve[i++];
        p.trials += other.slowdown_curve[j].trials;
        p.unreachable += other.slowdown_curve[j].unreachable;
        p.slowdown_sum += other.slowdown_curve[j].slowdown_sum;
        ++j;
        merged_slowdown.push_back(p);
      }
    }
  }
  slowdown_curve = std::move(merged_slowdown);
  // Merge the sorted sparse survival curves.
  std::vector<SurvivalPoint> merged;
  merged.reserve(survival_curve.size() + other.survival_curve.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < survival_curve.size() || j < other.survival_curve.size()) {
    if (j == other.survival_curve.size() ||
        (i < survival_curve.size() && survival_curve[i].faults < other.survival_curve[j].faults)) {
      merged.push_back(survival_curve[i++]);
    } else if (i == survival_curve.size() ||
               other.survival_curve[j].faults < survival_curve[i].faults) {
      merged.push_back(other.survival_curve[j++]);
    } else {
      SurvivalPoint p = survival_curve[i++];
      p.trials += other.survival_curve[j].trials;
      p.survived += other.survival_curve[j].survived;
      ++j;
      merged.push_back(p);
    }
  }
  survival_curve = std::move(merged);
}

// --- scenario execution ------------------------------------------------------

namespace {

/// Immutable per-scenario state shared (read-only) by all worker threads.
struct ScenarioContext {
  ScenarioCase cell;
  Graph target;
  Graph fabric;                     // point-to-point FT graph / realized bus graph
  std::optional<BusGraph> bus;      // set for the bus family
  std::unique_ptr<FaultModel> model;
  std::uint32_t target_diameter = 0;
  std::uint64_t seed = 0;
  MetricSet metrics;

  // collective metric: the full-N schedule, its identity rank map, the
  // healthy machine's run of it (the baseline every trial is compared
  // against, and the result of every trial whose machine presents the
  // target), and the healthy machine itself (reused per failed trial to price
  // the survivors' own baseline) — point-to-point families only.
  std::optional<sim::Schedule> schedule;
  std::vector<NodeId> identity_ranks;
  sim::ScheduleRunResult healthy_run;
  std::optional<sim::Machine> healthy_machine;

  // bus-fault models: the cell draws bus faults that must be resolved onto
  // the realized graph (bus-family cells) before the survival check.
  bool bus_model = false;

  // traffic metric (point-to-point families only): the trace is parsed once
  // per cell, the per-trial packet count is fixed by the spec, and the cycle
  // cap is a deterministic function of the workload (so a saturated hotspot
  // counts as timed_out instead of stalling the trial loop).
  bool traffic = false;
  std::vector<sim::Packet> trace_packets;
  std::uint64_t traffic_packets = 0;
  std::uint64_t traffic_max_cycles = 0;
};

ScenarioContext build_context(const ScenarioSpec& spec, const ScenarioCase& cell) {
  ScenarioContext ctx;
  ctx.cell = cell;
  ctx.seed = spec.seed;
  ctx.metrics = spec.metrics;
  const unsigned h = cell.topology.digits;
  const unsigned k = cell.spares;
  switch (cell.topology.family) {
    case TopologyFamily::DeBruijn:
      ctx.target = debruijn_graph({.base = cell.topology.base, .digits = h});
      ctx.fabric = ft_debruijn_graph({.base = cell.topology.base, .digits = h, .spares = k});
      break;
    case TopologyFamily::ShuffleExchange: {
      // Route 2 (natural labeling): self-contained, no VF2 search needed.
      ctx.target = shuffle_exchange_graph(h);
      ctx.fabric = ft_shuffle_exchange_natural(h, k).ft_graph;
      break;
    }
    case TopologyFamily::Bus: {
      ctx.bus = bus_ft_debruijn_base2(h, k);
      ctx.target = debruijn_base2(h);
      // Fault models and graph metrics act on the point-to-point connectivity
      // the restricted driver<->member discipline realizes.
      ctx.fabric = ctx.bus->realized_graph();
      break;
    }
  }
  ctx.model = make_fault_model(cell.fault_model);
  ctx.model->prepare(ctx.fabric, k);
  // Bus-family cells additionally expose the bus structure: clustered bus
  // correlation follows shared-membership, not just realized adjacency.
  if (ctx.bus) ctx.model->prepare_bus(*ctx.bus, k);
  ctx.bus_model = cell.fault_model.kind == FaultModelKind::BusIid ||
                  cell.fault_model.kind == FaultModelKind::BusClustered;
  ctx.target_diameter = diameter(ctx.target);
  if (spec.metrics.collective && cell.topology.family != TopologyFamily::Bus) {
    // Compile the schedule once per cell and price the healthy machine — the
    // denominator of every trial's slowdown, and the whole result of every
    // trial whose reconfigured machine presents the target.
    ctx.schedule = sim::build_schedule(
        sim::schedule_kind_from_name(spec.metrics.collective_schedule),
        static_cast<std::uint32_t>(ctx.target.num_nodes()));
    ctx.identity_ranks.resize(ctx.target.num_nodes());
    for (NodeId v = 0; v < ctx.target.num_nodes(); ++v) ctx.identity_ranks[v] = v;
    ctx.healthy_machine.emplace(sim::Machine::direct(ctx.target));
    ctx.healthy_run = sim::execute_schedule(*ctx.healthy_machine, ctx.target, *ctx.schedule,
                                            ctx.identity_ranks);
  }
  if (spec.metrics.traffic && cell.topology.family != TopologyFamily::Bus) {
    ctx.traffic = true;
    const TrafficSpec& ts = spec.metrics.traffic_spec;
    std::uint64_t horizon = 0;
    if (ts.pattern == "trace") {
      // Parsed once per cell; endpoints are range-checked against this cell's
      // target (the spec parser only checked the grid's largest family).
      ctx.trace_packets = sim::trace_traffic(ts.trace, ctx.target.num_nodes());
      ctx.traffic_packets = ctx.trace_packets.size();
      for (const sim::Packet& p : ctx.trace_packets) {
        horizon = std::max(horizon, p.inject_cycle);
      }
    } else {
      ctx.traffic_packets = ts.packets_per_node * ctx.target.num_nodes();
    }
    // Generous but bounded: even a single-sink hotspot drains at >= 1
    // packet/cycle once the queues form, so 4x the packet count past the
    // injection horizon only triggers on genuinely wedged (disconnected)
    // flows, which run_packets already classifies as undeliverable.
    ctx.traffic_max_cycles = horizon + 4 * ctx.traffic_packets + 1024;
  }
  return ctx;
}

/// Dense per-block accumulators, folded into the sparse curves once the
/// block completes (fold_histogram). Keeping them dense makes the per-trial
/// hot path an array index, and folding in block order keeps the report
/// deterministic.
struct BlockScratch {
  std::vector<std::uint64_t> hist;            // trials by drawn fault count
  std::vector<std::uint64_t> survived;        // successes by drawn fault count
  std::vector<std::uint64_t> coll_trials;     // collective runs by fault count
  std::vector<std::uint64_t> coll_unreachable;
  std::vector<double> coll_slowdown_sum;
};

/// Runs one trial and folds it straight into `acc`.
void run_trial(const ScenarioContext& ctx, std::uint64_t trial_idx, ScenarioResult& acc,
               BlockScratch& scratch) {
  std::vector<std::uint64_t>& dense_hist = scratch.hist;
  std::vector<std::uint64_t>& dense_survived = scratch.survived;
  TrialRng rng = TrialRng::for_trial(ctx.seed, ctx.cell.index, trial_idx);
  const FaultDraw draw = ctx.model->draw(ctx.fabric, ctx.cell.spares, rng);
  const std::uint64_t faults = draw.faults.count();

  const bool within_budget = faults <= ctx.cell.spares;
  bool success = false;
  if (within_budget) {
    if (ctx.bus && !draw.bus_faults.empty()) {
      // Section V discipline: bus faults resolve to driver-node faults on the
      // realized graph, and the merged set must still fit the spare budget.
      const std::optional<FaultSet> resolved = resolve_bus_faults(
          *ctx.bus, ctx.cell.spares, draw.faults.nodes(), draw.bus_faults);
      success = resolved.has_value() &&
                bus_monotone_embedding_survives(ctx.target, *ctx.bus, *resolved);
    } else if (ctx.bus) {
      success = bus_monotone_embedding_survives(ctx.target, *ctx.bus, draw.faults);
    } else {
      success = monotone_embedding_survives(ctx.target, ctx.fabric, draw.faults);
    }
  }

  ++acc.trials;
  acc.fault_count.add(static_cast<double>(faults));
  if (ctx.bus_model) acc.bus_fault_count.add(static_cast<double>(draw.bus_faults.size()));
  if (!within_budget) ++acc.over_budget;
  if (success) ++acc.reconfig_success;

  if (dense_hist.size() <= faults) {
    dense_hist.resize(faults + 1, 0);
    dense_survived.resize(faults + 1, 0);
  }
  ++dense_hist[faults];
  if (success) ++dense_survived[faults];

  // Stretch runs on both point-to-point families: de Bruijn via the shift
  // algebra, shuffle-exchange via the exact SE distance (the bus machine has
  // no logical routing engine to audit).
  const bool se_family = ctx.cell.topology.family == TopologyFamily::ShuffleExchange;
  const bool want_stretch =
      ctx.metrics.stretch && success &&
      (ctx.cell.topology.family == TopologyFamily::DeBruijn || se_family);
  const bool want_collective = ctx.schedule.has_value();
  std::optional<sim::Machine> reconfigured;
  if (success && ((ctx.metrics.diameter) || want_stretch || want_collective || ctx.traffic)) {
    // One reconfigured machine serves all post-fault metrics (Machine copies
    // the fabric CSR, so building it repeatedly per trial would multiply the
    // cost of the hot loop).
    reconfigured.emplace(
        sim::Machine::reconfigured(ctx.fabric, draw.faults, ctx.target.num_nodes()));
  }
  // Measure (not assume) the paper's claim that the reconfigured machine
  // presents the intact target: checked edge for edge, once per trial, and
  // shared by the diameter and collective metrics.
  const bool presents = success && (ctx.metrics.diameter || want_collective) &&
                        reconfigured->presents(ctx.target);
  if (success && (ctx.metrics.diameter || want_stretch)) {
    const sim::Machine& machine = *reconfigured;
    if (ctx.metrics.diameter) {
      // A machine that presents the target has the target's diameter; the
      // live graph is rebuilt and swept only when a target edge is missing.
      const std::uint32_t d = presents ? ctx.target_diameter
                                       : diameter(machine.live_logical_graph(ctx.target));
      if (d != kUnreachable) acc.reconfigured_diameter.add(static_cast<double>(d));
    }
    if (want_stretch) {
      if (ctx.metrics.stretch_sample_pairs == 0) {
        acc.route_stretch.add(
            se_family
                ? sim::max_route_stretch_se(machine, ctx.cell.topology.digits)
                : sim::max_route_stretch(machine, ctx.cell.topology.base,
                                         ctx.cell.topology.digits));
      } else {
        // Counter-based pair sample: drawn from the trial's own RNG stream
        // (after the fault draw), so the report stays byte-identical across
        // thread counts and checkpoint/resume. Self-pairs are dropped rather
        // than redrawn to keep the stream consumption fixed.
        const std::uint64_t n_nodes = ctx.target.num_nodes();
        std::vector<std::pair<NodeId, NodeId>> pairs;
        pairs.reserve(ctx.metrics.stretch_sample_pairs);
        for (std::uint64_t i = 0; i < ctx.metrics.stretch_sample_pairs; ++i) {
          const NodeId s = static_cast<NodeId>(rng.next_u64() % n_nodes);
          const NodeId d = static_cast<NodeId>(rng.next_u64() % n_nodes);
          if (s != d) pairs.emplace_back(s, d);
        }
        acc.route_stretch.add(
            se_family
                ? sim::max_route_stretch_se_sampled(machine, ctx.cell.topology.digits, pairs)
                : sim::max_route_stretch_sampled(machine, ctx.cell.topology.base,
                                                 ctx.cell.topology.digits, pairs));
      }
    }
  } else if (!success && ctx.metrics.diameter) {
    // Degraded machine: whatever the survivors still form.
    const InducedSubgraph survivors =
        induced_subgraph_excluding(ctx.fabric, draw.faults.nodes());
    const std::uint32_t d =
        survivors.graph.num_nodes() == 0 ? kUnreachable : diameter(survivors.graph);
    if (d == kUnreachable) {
      ++acc.degraded_disconnected;
    } else {
      acc.degraded_diameter.add(static_cast<double>(d));
    }
  }

  if (want_collective) {
    // Run the collective through the packet engine: the reconfigured machine
    // runs the full-N schedule against the cell's healthy baseline (the
    // operational dilation-1 claim — the slowdown is exactly 1.0). The engine
    // sees a machine only through the live logical graph, the router built
    // from it and node liveness. A machine that presents the target has the
    // target as its live graph, hence the healthy router, and the
    // reconfiguration places every logical node on a live one — so its run
    // *is* the healthy run, taken without running; only a machine missing a
    // target edge runs the engine. A degraded bare target runs a schedule
    // compiled over its survivors, priced against the *same survivors'
    // schedule on the healthy target* so the slowdown isolates the rerouting
    // cost instead of crediting the smaller job.
    sim::ScheduleRunResult run;
    std::uint64_t baseline_cycles = ctx.healthy_run.total_cycles;
    bool ran = false;
    if (success) {
      run = sim::execute_schedule_or_reuse(*reconfigured, presents, ctx.healthy_run, ctx.target,
                                           *ctx.schedule, ctx.identity_ranks);
      ran = true;
    } else {
      std::vector<NodeId> survivors;
      for (NodeId v = 0; v < ctx.target.num_nodes(); ++v) {
        if (!draw.faults.is_faulty(v)) survivors.push_back(v);
      }
      if (!survivors.empty()) {
        std::vector<NodeId> hit;
        for (const NodeId f : draw.faults.nodes()) {
          if (f < ctx.target.num_nodes()) hit.push_back(f);
        }
        const sim::Machine degraded = sim::Machine::direct_with_faults(
            ctx.target, FaultSet(ctx.target.num_nodes(), std::move(hit)));
        const sim::Schedule sched = sim::build_schedule(
            ctx.schedule->kind, static_cast<std::uint32_t>(survivors.size()));
        run = sim::execute_schedule(degraded, ctx.target, sched, survivors);
        baseline_cycles =
            sim::execute_schedule(*ctx.healthy_machine, ctx.target, sched, survivors)
                .total_cycles;
        ran = true;
      }
      // else: every target node dead — counted unreachable below.
    }
    if (scratch.coll_trials.size() <= faults) {
      scratch.coll_trials.resize(faults + 1, 0);
      scratch.coll_unreachable.resize(faults + 1, 0);
      scratch.coll_slowdown_sum.resize(faults + 1, 0.0);
    }
    ++scratch.coll_trials[faults];
    if (ran && run.completed()) {
      const double slowdown =
          baseline_cycles == 0
              ? 1.0
              : static_cast<double>(run.total_cycles) / static_cast<double>(baseline_cycles);
      acc.collective_slowdown.add(slowdown);
      acc.collective_hop_cycles.add(static_cast<double>(run.total_hop_cycles));
      acc.collective_congestion.add(static_cast<double>(run.max_link_congestion));
      scratch.coll_slowdown_sum[faults] += slowdown;
    } else {
      ++acc.collective_unreachable;
      ++scratch.coll_unreachable[faults];
    }
  }

  if (ctx.traffic) {
    // The workload seed is drawn unconditionally (traces ignore it), so the
    // per-trial stream layout does not depend on the pattern and stays a
    // fixed function of the spec — the byte-identity invariant.
    const std::uint64_t traffic_seed = rng.next_u64();
    const TrafficSpec& ts = ctx.metrics.traffic_spec;
    const std::uint64_t n_nodes = ctx.target.num_nodes();
    std::vector<sim::Packet> packets;
    if (ts.pattern == "trace") {
      packets = ctx.trace_packets;
    } else if (ts.pattern == "zipf") {
      packets = sim::zipf_traffic(n_nodes, ctx.traffic_packets, ts.theta, traffic_seed);
    } else if (ts.pattern == "hotspot_burst") {
      // Hot nodes are re-drawn each trial (with replacement) from the trial's
      // own stream — exactly `hotspots` draws, keeping consumption constant.
      std::vector<NodeId> hot;
      hot.reserve(ts.hotspots);
      for (std::uint64_t i = 0; i < ts.hotspots; ++i) {
        hot.push_back(static_cast<NodeId>(rng.next_u64() % n_nodes));
      }
      packets = sim::hotspot_burst_traffic(n_nodes, ctx.traffic_packets, hot, ts.fraction_hot,
                                           ts.burst_cycles, traffic_seed);
    } else {
      packets = sim::uniform_traffic(n_nodes, ctx.traffic_packets, 0, traffic_seed);
    }
    std::optional<sim::SimStats> stats;
    if (success) {
      stats = sim::run_packets(*reconfigured, ctx.target, packets,
                               {.max_cycles = ctx.traffic_max_cycles, .router = {}});
    } else {
      std::vector<NodeId> hit;
      for (const NodeId f : draw.faults.nodes()) {
        if (f < n_nodes) hit.push_back(f);
      }
      if (hit.size() < n_nodes) {
        const sim::Machine degraded = sim::Machine::direct_with_faults(
            ctx.target, FaultSet(n_nodes, std::move(hit)));
        stats = sim::run_packets(degraded, ctx.target, packets,
                                 {.max_cycles = ctx.traffic_max_cycles, .router = {}});
      }
      // else: every target node dead — nothing can inject; scored below.
    }
    if (stats) {
      acc.traffic_delivered.add(stats->delivered_fraction());
      if (stats->delivered > 0) acc.traffic_latency.add(stats->average_latency());
      acc.traffic_congestion.add(static_cast<double>(stats->max_queue_depth));
      acc.traffic_timed_out += stats->timed_out;
    } else {
      acc.traffic_delivered.add(0.0);
    }
  }

  if (ctx.metrics.mttf) {
    if (std::isfinite(draw.spare_exhaustion_time)) {
      acc.mttf.add(draw.spare_exhaustion_time);
    } else {
      ++acc.mttf_censored;
    }
  }
}

/// Sparse survival and slowdown curves from the dense per-block counters.
void fold_histogram(ScenarioResult& acc, const BlockScratch& scratch) {
  for (std::size_t f = 0; f < scratch.hist.size(); ++f) {
    if (scratch.hist[f] == 0) continue;
    acc.survival_curve.push_back({f, scratch.hist[f], scratch.survived[f]});
  }
  for (std::size_t f = 0; f < scratch.coll_trials.size(); ++f) {
    if (scratch.coll_trials[f] == 0) continue;
    acc.slowdown_curve.push_back(
        {f, scratch.coll_trials[f], scratch.coll_unreachable[f], scratch.coll_slowdown_sum[f]});
  }
}

/// Runs one complete trial block of a cell and returns its partial
/// accumulator — the unit both run_campaign and the elastic CellRunner
/// execute. Reads the context only, so any number of threads can
/// run different blocks of the same cell concurrently.
ScenarioResult run_one_block(const ScenarioContext& ctx, std::uint64_t total_trials,
                             std::uint64_t block) {
  ScenarioResult partial;
  partial.scenario_index = ctx.cell.index;
  BlockScratch scratch;
  const std::uint64_t lo = block * kTrialBlock;
  const std::uint64_t hi = std::min(total_trials, lo + kTrialBlock);
  for (std::uint64_t t = lo; t < hi; ++t) {
    run_trial(ctx, t, partial, scratch);
  }
  fold_histogram(partial, scratch);
  return partial;
}

/// Exact E[time of the (k+1)-st failure] when all n fabric nodes fail
/// independently with probability p per step: summing the survival function,
/// E = sum_{t >= 0} P[at most k of n failed by step t], with per-node
/// failure probability 1 - (1-p)^t by step t. This is the true expectation
/// of the empirical draw (simultaneous failures allowed) — deliberately not
/// sim::analytic_mttf, which models failures one at a time and overshoots
/// once n*p stops being small.
///
/// The sum needs on the order of the MTTF itself in iterations, so a cap
/// bounds the work; past it we return NaN (report renders "-") rather than a
/// silently truncated number next to the empirical column it validates.
double exact_iid_mttf(std::uint64_t n, unsigned spares, double p) {
  long double expectation = 0.0L;
  long double log_alive = 0.0L;  // log of per-node survival prob (1-p)^t
  const long double log_1mp = std::log1p(static_cast<long double>(-p));
  for (std::uint64_t t = 0; t < 2000000; ++t) {
    const long double q_fail = -std::expm1(log_alive);
    const long double alive = binomial_cdf(n, spares, q_fail);
    expectation += alive;
    if (alive < 1e-13L && t > 0) return static_cast<double>(expectation);
    log_alive += log_1mp;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Fills the cell-level metadata and analytic companions on a fully-merged
/// accumulator — shared by run_campaign's cell finalization and the elastic
/// runner/merge paths (which must produce byte-identical reports).
void finalize_result(const ScenarioContext& ctx, const ScenarioCase& cell, ScenarioResult& r) {
  r.scenario_index = cell.index;
  r.label = cell.label();
  r.target_nodes = ctx.target.num_nodes();
  r.fabric_nodes = ctx.fabric.num_nodes();
  r.target_diameter = ctx.target_diameter;
  if (ctx.schedule) {
    r.collective_rounds = ctx.schedule->rounds();
    r.collective_baseline_cycles = ctx.healthy_run.total_cycles;
  }
  const FaultModelSpec& model = cell.fault_model;
  if (model.kind == FaultModelKind::IidBernoulli) {
    r.analytic_survival = static_cast<double>(survival_probability(
        r.target_nodes, cell.spares, static_cast<long double>(model.p)));
    r.analytic_mttf = exact_iid_mttf(r.fabric_nodes, cell.spares, model.p);
  } else if (model.kind == FaultModelKind::BusIid) {
    // One bus per fabric node, each driver's clock an iid geometric(p) — the
    // node-model closed forms apply verbatim (Section V: a bus fault is its
    // driver's fault).
    r.analytic_survival = static_cast<double>(survival_probability(
        r.target_nodes, cell.spares, static_cast<long double>(model.p)));
    r.analytic_mttf = exact_iid_mttf(r.fabric_nodes, cell.spares, model.p);
  } else if (model.kind == FaultModelKind::Weibull) {
    // The model draws full lifetimes, so the empirical MTTF column is exactly
    // the (k+1)-st order statistic this closed form computes.
    r.analytic_mttf = weibull_mttf(r.fabric_nodes, cell.spares, model.shape, model.scale);
  }
}

// --- result (de)serialization ------------------------------------------------

void write_stats(JsonWriter& w, const StreamingStats& s) {
  w.begin_object();
  w.key("count");
  w.value(s.count);
  w.key("mean");
  w.value(s.mean);
  w.key("m2");
  w.value(s.m2);
  if (s.count > 0) {
    w.key("min");
    w.value(s.min);
    w.key("max");
    w.value(s.max);
  }
  w.end_object();
}

double number_or_nan(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->is_null()) return std::numeric_limits<double>::quiet_NaN();
  return v->number;
}

std::uint64_t uint_of(const JsonValue& obj, const std::string& key) {
  return static_cast<std::uint64_t>(obj.at(key).number);
}

StreamingStats parse_stats(const JsonValue& obj) {
  StreamingStats s;
  s.count = uint_of(obj, "count");
  s.mean = obj.at("mean").number;
  s.m2 = obj.at("m2").number;
  if (s.count > 0) {
    s.min = obj.at("min").number;
    s.max = obj.at("max").number;
  }
  return s;
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace

// Exposed through runner.hpp for report.cpp's use as well.
void write_scenario_result(JsonWriter& w, const ScenarioResult& r) {
  w.begin_object();
  w.key("scenario_index");
  w.value(static_cast<std::uint64_t>(r.scenario_index));
  w.key("label");
  w.value(r.label);
  w.key("target_nodes");
  w.value(r.target_nodes);
  w.key("fabric_nodes");
  w.value(r.fabric_nodes);
  w.key("target_diameter");
  w.value(static_cast<std::uint64_t>(r.target_diameter));
  w.key("trials");
  w.value(r.trials);
  w.key("reconfig_success");
  w.value(r.reconfig_success);
  w.key("over_budget");
  w.value(r.over_budget);
  w.key("fault_count");
  write_stats(w, r.fault_count);
  w.key("reconfigured_diameter");
  write_stats(w, r.reconfigured_diameter);
  w.key("degraded_diameter");
  write_stats(w, r.degraded_diameter);
  w.key("degraded_disconnected");
  w.value(r.degraded_disconnected);
  w.key("route_stretch");
  write_stats(w, r.route_stretch);
  w.key("mttf");
  write_stats(w, r.mttf);
  w.key("mttf_censored");
  w.value(r.mttf_censored);
  w.key("collective_rounds");
  w.value(r.collective_rounds);
  w.key("collective_baseline_cycles");
  w.value(r.collective_baseline_cycles);
  w.key("collective_slowdown");
  write_stats(w, r.collective_slowdown);
  w.key("collective_hop_cycles");
  write_stats(w, r.collective_hop_cycles);
  w.key("collective_congestion");
  write_stats(w, r.collective_congestion);
  w.key("collective_unreachable");
  w.value(r.collective_unreachable);
  w.key("bus_fault_count");
  write_stats(w, r.bus_fault_count);
  w.key("traffic_delivered");
  write_stats(w, r.traffic_delivered);
  w.key("traffic_latency");
  write_stats(w, r.traffic_latency);
  w.key("traffic_congestion");
  write_stats(w, r.traffic_congestion);
  w.key("traffic_timed_out");
  w.value(r.traffic_timed_out);
  w.key("survival_curve");
  w.begin_array();
  for (const SurvivalPoint& p : r.survival_curve) {
    w.begin_object();
    w.key("faults");
    w.value(p.faults);
    w.key("trials");
    w.value(p.trials);
    w.key("survived");
    w.value(p.survived);
    w.end_object();
  }
  w.end_array();
  w.key("slowdown_curve");
  w.begin_array();
  for (const SlowdownPoint& p : r.slowdown_curve) {
    w.begin_object();
    w.key("faults");
    w.value(p.faults);
    w.key("trials");
    w.value(p.trials);
    w.key("unreachable");
    w.value(p.unreachable);
    w.key("slowdown_sum");
    w.value(p.slowdown_sum);
    w.end_object();
  }
  w.end_array();
  w.key("analytic_survival");
  w.value(r.analytic_survival);  // NaN -> null
  w.key("analytic_mttf");
  w.value(r.analytic_mttf);
  // Derived convenience fields (ignored by parse_scenario_result).
  const WilsonInterval ci = r.success_ci();
  w.key("success_rate");
  w.value(r.success_rate());
  w.key("success_ci95_lo");
  w.value(ci.lo);
  w.key("success_ci95_hi");
  w.value(ci.hi);
  w.end_object();
}

ScenarioResult parse_scenario_result(const JsonValue& obj) {
  ScenarioResult r;
  r.scenario_index = uint_of(obj, "scenario_index");
  r.label = obj.at("label").string;
  r.target_nodes = uint_of(obj, "target_nodes");
  r.fabric_nodes = uint_of(obj, "fabric_nodes");
  r.target_diameter = static_cast<std::uint32_t>(uint_of(obj, "target_diameter"));
  r.trials = uint_of(obj, "trials");
  r.reconfig_success = uint_of(obj, "reconfig_success");
  r.over_budget = uint_of(obj, "over_budget");
  r.fault_count = parse_stats(obj.at("fault_count"));
  r.reconfigured_diameter = parse_stats(obj.at("reconfigured_diameter"));
  r.degraded_diameter = parse_stats(obj.at("degraded_diameter"));
  r.degraded_disconnected = uint_of(obj, "degraded_disconnected");
  r.route_stretch = parse_stats(obj.at("route_stretch"));
  r.mttf = parse_stats(obj.at("mttf"));
  r.mttf_censored = uint_of(obj, "mttf_censored");
  // Collective fields parse leniently: pre-collective documents (earlier
  // checkpoints/reports) simply leave the defaults in place.
  if (const JsonValue* v = obj.find("collective_rounds")) {
    r.collective_rounds = static_cast<std::uint64_t>(v->number);
  }
  if (const JsonValue* v = obj.find("collective_baseline_cycles")) {
    r.collective_baseline_cycles = static_cast<std::uint64_t>(v->number);
  }
  if (const JsonValue* v = obj.find("collective_slowdown")) {
    r.collective_slowdown = parse_stats(*v);
  }
  if (const JsonValue* v = obj.find("collective_hop_cycles")) {
    r.collective_hop_cycles = parse_stats(*v);
  }
  if (const JsonValue* v = obj.find("collective_congestion")) {
    r.collective_congestion = parse_stats(*v);
  }
  if (const JsonValue* v = obj.find("collective_unreachable")) {
    r.collective_unreachable = static_cast<std::uint64_t>(v->number);
  }
  // Likewise lenient: pre-PR-10 documents carry neither bus nor traffic stats.
  if (const JsonValue* v = obj.find("bus_fault_count")) r.bus_fault_count = parse_stats(*v);
  if (const JsonValue* v = obj.find("traffic_delivered")) r.traffic_delivered = parse_stats(*v);
  if (const JsonValue* v = obj.find("traffic_latency")) r.traffic_latency = parse_stats(*v);
  if (const JsonValue* v = obj.find("traffic_congestion")) {
    r.traffic_congestion = parse_stats(*v);
  }
  if (const JsonValue* v = obj.find("traffic_timed_out")) {
    r.traffic_timed_out = static_cast<std::uint64_t>(v->number);
  }
  for (const JsonValue& p : obj.at("survival_curve").array) {
    r.survival_curve.push_back({uint_of(p, "faults"), uint_of(p, "trials"),
                                uint_of(p, "survived")});
  }
  if (const JsonValue* curve = obj.find("slowdown_curve")) {
    for (const JsonValue& p : curve->array) {
      r.slowdown_curve.push_back({uint_of(p, "faults"), uint_of(p, "trials"),
                                  uint_of(p, "unreachable"), p.at("slowdown_sum").number});
    }
  }
  r.analytic_survival = number_or_nan(obj, "analytic_survival");
  r.analytic_mttf = number_or_nan(obj, "analytic_mttf");
  return r;
}

// --- compaction snapshot (de)serialization -----------------------------------

std::string checkpoint_to_json(const ScenarioSpec& spec, const Checkpoint& ckpt) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("ftdb-campaign-checkpoint-v2");
  // Hex strings, not JSON numbers: 64-bit fingerprints do not survive the
  // parser's double representation.
  w.key("fingerprint");
  w.value(fingerprint_hex(spec_fingerprint(spec)));
  // The whole-campaign shard object the v2 format carries; its stamp equals
  // the spec fingerprint.
  w.key("shard");
  w.begin_object();
  w.key("index");
  w.value(std::uint64_t{0});
  w.key("count");
  w.value(std::uint64_t{1});
  w.key("fingerprint");
  w.value(fingerprint_hex(spec_fingerprint(spec)));
  w.end_object();
  // The block size the partials were cut with: partials from a different
  // partition cannot be merged in order, so parse rejects a mismatch.
  w.key("trial_block");
  w.value(kTrialBlock);
  w.key("cells");
  w.begin_array();
  for (const CellProgress& c : ckpt.cells) {
    w.begin_object();
    w.key("scenario_index");
    w.value(static_cast<std::uint64_t>(c.scenario_index));
    w.key("prefix_blocks");
    w.value(c.prefix_blocks);
    if (c.prefix_blocks > 0) {
      w.key("prefix");
      write_scenario_result(w, c.prefix);
    }
    if (!c.extra.empty()) {
      w.key("extra");
      w.begin_array();
      for (const auto& [block, partial] : c.extra) {
        w.begin_object();
        w.key("block");
        w.value(block);
        w.key("partial");
        write_scenario_result(w, partial);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

Checkpoint parse_checkpoint(const std::string& json_text) {
  const JsonValue doc = analysis::json_parse(json_text);
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "ftdb-campaign-checkpoint-v2") {
    throw std::runtime_error(
        "campaign: not an ftdb-campaign-checkpoint-v2 document (v1 checkpoints are "
        "scenario-granular; rerun the campaign to produce a v2 checkpoint)");
  }
  if (uint_of(doc, "trial_block") != kTrialBlock) {
    throw std::runtime_error("campaign: checkpoint was cut with a different trial block size");
  }
  const JsonValue& shard = doc.at("shard");
  if (uint_of(shard, "index") != 0 || uint_of(shard, "count") > 1) {
    throw std::runtime_error("campaign: checkpoint covers one shard, not the whole campaign");
  }
  Checkpoint ckpt;
  ckpt.fingerprint = std::strtoull(doc.at("fingerprint").string.c_str(), nullptr, 16);
  std::size_t last_index = 0;
  bool first = true;
  for (const JsonValue& c : doc.at("cells").array) {
    CellProgress cell;
    cell.scenario_index = uint_of(c, "scenario_index");
    if (!first && cell.scenario_index <= last_index) {
      throw std::runtime_error("campaign: checkpoint cells out of order or duplicated");
    }
    first = false;
    last_index = cell.scenario_index;
    cell.prefix_blocks = uint_of(c, "prefix_blocks");
    if (cell.prefix_blocks > 0) cell.prefix = parse_scenario_result(c.at("prefix"));
    if (const JsonValue* extra = c.find("extra")) {
      std::uint64_t last_block = 0;
      for (const JsonValue& e : extra->array) {
        const std::uint64_t block = uint_of(e, "block");
        if (block < cell.prefix_blocks ||
            (!cell.extra.empty() && block <= last_block)) {
          throw std::runtime_error("campaign: checkpoint extra blocks out of order");
        }
        last_block = block;
        cell.extra.emplace_back(block, parse_scenario_result(e.at("partial")));
      }
    }
    ckpt.cells.push_back(std::move(cell));
  }
  return ckpt;
}

// --- the block pool and the in-memory campaign -------------------------------

void run_block_pool(unsigned threads, std::vector<BlockUnit> units, std::size_t capacity,
                    const std::function<void(const BlockUnit&)>& run,
                    const BlockRefill& refill) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  // The queue never reallocates, so takers read units[c] through `base`
  // without a lock: a unit is written before `published` moves past it.
  units.reserve(std::max(capacity, units.size()));
  const BlockUnit* const base = units.data();
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> published{units.size()};
  std::atomic<bool> stop{false};
  std::mutex mu;  // guards `units` appends, `drained` and `failure`
  bool drained = false;
  std::exception_ptr failure;

  auto take = [&](BlockUnit& out) -> bool {
    for (;;) {
      if (stop.load()) return false;
      std::size_t c = cursor.load();
      if (c < published.load(std::memory_order_acquire)) {
        if (cursor.compare_exchange_weak(c, c + 1)) {
          out = base[c];
          return true;
        }
        continue;
      }
      const std::lock_guard<std::mutex> lock(mu);
      if (drained) return false;
      if (cursor.load() < published.load()) continue;  // another thread refilled
      std::vector<BlockUnit> more;
      if (refill) refill(more);
      if (more.empty()) {
        drained = true;
        return false;
      }
      if (units.size() + more.size() > units.capacity()) {
        throw std::logic_error("block pool: refill exceeds the queue capacity");
      }
      units.insert(units.end(), more.begin(), more.end());
      published.store(units.size(), std::memory_order_release);
    }
  };
  auto worker = [&] {
    try {
      BlockUnit u;
      while (take(u)) run(u);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (!failure) failure = std::current_exception();
      stop.store(true);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);
}

namespace {

/// Mutable per-cell reduction state. `mu` guards everything below it; the
/// context is built lazily on the first block that touches the cell and freed
/// on finalization.
struct CellState {
  ScenarioCase cell;
  std::uint64_t num_blocks = 0;

  std::once_flag ctx_once;
  std::unique_ptr<ScenarioContext> ctx;

  std::mutex mu;
  ScenarioResult prefix;                          // merged blocks [0, merged_blocks)
  std::uint64_t merged_blocks = 0;
  std::map<std::uint64_t, ScenarioResult> pending;  // completed out-of-order blocks
};

}  // namespace

CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options) {
  if (spec.trials == 0) throw std::runtime_error("campaign: trials must be positive");
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  if (cells.empty()) throw std::runtime_error("campaign: empty scenario grid");

  const std::uint64_t num_blocks = num_trial_blocks(spec.trials);
  std::vector<std::unique_ptr<CellState>> states;
  std::vector<BlockUnit> units;
  for (const ScenarioCase& cell : cells) {
    auto st = std::make_unique<CellState>();
    st->cell = cell;
    st->num_blocks = num_blocks;
    st->prefix.scenario_index = cell.index;
    states.push_back(std::move(st));
    for (std::uint64_t b = 0; b < num_blocks; ++b) units.push_back({cell.index, b});
  }

  std::mutex progress_mu;
  std::size_t cells_done = 0;
  auto run_unit = [&](const BlockUnit& u) {
    CellState& st = *states[u.cell];
    std::call_once(st.ctx_once,
                   [&] { st.ctx = std::make_unique<ScenarioContext>(build_context(spec, st.cell)); });
    ScenarioResult partial = run_one_block(*st.ctx, spec.trials, u.block);

    const std::lock_guard<std::mutex> lock(st.mu);
    if (u.block != st.merged_blocks) {
      st.pending.emplace(u.block, std::move(partial));
      return;
    }
    st.prefix.merge(partial);
    ++st.merged_blocks;
    while (!st.pending.empty() && st.pending.begin()->first == st.merged_blocks) {
      st.prefix.merge(st.pending.begin()->second);
      ++st.merged_blocks;
      st.pending.erase(st.pending.begin());
    }
    if (st.merged_blocks < st.num_blocks) return;
    finalize_result(*st.ctx, st.cell, st.prefix);
    st.ctx.reset();  // the graphs are the heavy part; drop them as cells finish
    if (options.progress != nullptr) {
      const std::lock_guard<std::mutex> plock(progress_mu);
      *options.progress << "[" << ++cells_done << "/" << states.size() << "] "
                        << st.cell.label() << ": success " << st.prefix.reconfig_success
                        << "/" << st.prefix.trials << "\n";
    }
  };
  const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
      options.threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : options.threads,
      units.size()));
  const std::size_t capacity = units.size();
  run_block_pool(threads, std::move(units), capacity, run_unit);

  CampaignResult result;
  result.spec = spec;
  result.scenarios.reserve(states.size());
  for (auto& st : states) result.scenarios.push_back(std::move(st->prefix));
  return result;
}

// --- CellRunner -------------------------------------------------------------

struct CellRunner::Impl {
  std::uint64_t trials;
  ScenarioCase cell;
  ScenarioContext ctx;
};

CellRunner::CellRunner(const ScenarioSpec& spec, const ScenarioCase& cell)
    : impl_(new Impl{spec.trials, cell, build_context(spec, cell)}) {}

CellRunner::~CellRunner() = default;
CellRunner::CellRunner(CellRunner&&) noexcept = default;
CellRunner& CellRunner::operator=(CellRunner&&) noexcept = default;

std::uint64_t CellRunner::num_blocks() const { return num_trial_blocks(impl_->trials); }

ScenarioResult CellRunner::run_block(std::uint64_t block) const {
  if (block >= num_blocks()) throw std::out_of_range("CellRunner::run_block: block out of range");
  return run_one_block(impl_->ctx, impl_->trials, block);
}

void CellRunner::finalize(ScenarioResult& r) const {
  finalize_result(impl_->ctx, impl_->cell, r);
}

}  // namespace ftdb::campaign
