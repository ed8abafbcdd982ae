// campaign_cell and campaign_survival: run_campaign with 2 worker threads on
// one de Bruijn cell. The traced run times each CellRunner block and replays
// every trial through the layers' public calls, one span per stage. See
// perfbench/README.md for the workload definitions.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "campaign/fault_models.hpp"
#include "campaign/report.hpp"
#include "campaign/rng.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/tolerance.hpp"
#include "graph/algorithms.hpp"
#include "graph/subgraph.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/reconfigured_routing.hpp"
#include "sim/schedule.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"

namespace perfbench {
namespace {

using namespace ftdb::campaign;
using ftdb::FaultSet;
using ftdb::Graph;
using ftdb::NodeId;

constexpr unsigned kThreads = 2;
constexpr std::uint64_t kTrials = 512;  // two 256-trial blocks: one per worker thread

ScenarioSpec base_spec(const char* name, std::uint64_t seed, unsigned digits, unsigned spares,
                       double p) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.trials = kTrials;
  spec.topologies = {{.family = TopologyFamily::DeBruijn, .base = 2, .digits = digits}};
  spec.spares = {spares};
  spec.fault_models = {{.kind = FaultModelKind::IidBernoulli, .p = p}};
  spec.metrics.diameter = true;
  spec.metrics.mttf = true;
  return spec;
}

/// B_{2,6}, k = 3, iid p = 0.02, every metric on.
ScenarioSpec cell_spec(std::uint64_t seed) {
  ScenarioSpec spec = base_spec("perfbench-campaign-cell", seed, 6, 3, 0.02);
  spec.metrics.stretch = true;
  spec.metrics.stretch_sample_pairs = 64;
  spec.metrics.collective = true;
  spec.metrics.collective_schedule = "all_to_all_bruck";
  spec.metrics.traffic = true;
  spec.metrics.traffic_spec.pattern = "zipf";
  spec.metrics.traffic_spec.theta = 1.0;
  spec.metrics.traffic_spec.packets_per_node = 4;
  return spec;
}

/// B_{2,10}, k = 4, iid p = 2/N, diameter and mttf only.
ScenarioSpec survival_spec(std::uint64_t seed) {
  return base_spec("perfbench-campaign-survival", seed, 10, 4, 2.0 / 1024.0);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The per-cell state run_trial reads, rebuilt from public calls exactly as
/// the runner builds it once per cell.
struct CellReplica {
  CellReplica(const ScenarioSpec& spec, const ScenarioCase& cell)
      : cell(cell),
        metrics(spec.metrics),
        seed(spec.seed),
        params{.base = cell.topology.base, .digits = cell.topology.digits},
        target(ftdb::debruijn_graph(params)),
        fabric(ftdb::ft_debruijn_graph(
            {.base = params.base, .digits = params.digits, .spares = cell.spares})),
        model(make_fault_model(cell.fault_model)),
        target_diameter(ftdb::diameter(target)) {
    model->prepare(fabric, cell.spares);
    const std::size_t n = target.num_nodes();
    if (metrics.collective) {
      schedule = ftdb::sim::build_schedule(
          ftdb::sim::schedule_kind_from_name(metrics.collective_schedule),
          static_cast<std::uint32_t>(n));
      for (NodeId v = 0; v < n; ++v) identity.push_back(v);
      healthy.emplace(ftdb::sim::Machine::direct(target));
      baseline_cycles =
          ftdb::sim::execute_schedule(*healthy, target, *schedule, identity).total_cycles;
    }
    if (metrics.traffic) {
      traffic_packets = metrics.traffic_spec.packets_per_node * n;
      traffic_max_cycles = 4 * traffic_packets + 1024;
    }
  }

  ScenarioCase cell;
  MetricSet metrics;
  std::uint64_t seed;
  ftdb::DeBruijnParams params;
  Graph target;
  Graph fabric;
  std::unique_ptr<FaultModel> model;
  std::uint32_t target_diameter;
  std::optional<ftdb::sim::Schedule> schedule;
  std::vector<NodeId> identity;
  std::optional<ftdb::sim::Machine> healthy;
  std::uint64_t baseline_cycles = 0;
  std::uint64_t traffic_packets = 0;
  std::uint64_t traffic_max_cycles = 0;
};

struct ReplicaTally {
  std::uint64_t success = 0;
  StreamingStats fault_count;
  std::uint64_t schedule_builds = 0;
  std::uint64_t engine_cycles = 0;
};

/// Replays trial `t` of the cell through the same public calls, in the same
/// order and with the same RNG consumption as the runner, one span per stage,
/// and checks the paper's claims on a reconfigured trial.
void replay_trial(const CellReplica& c, std::uint64_t t, Tracer& tr, ReplicaTally& tally,
                  Outcome& out) {
  namespace sim = ftdb::sim;
  const std::uint32_t trial = tr.begin("campaign.trial", 0, t);
  std::uint32_t s = 0;
  auto stage = [&](const char* name) { s = tr.begin(name, trial, t); };
  auto done = [&] { tr.end(s); };
  const std::size_t n = c.target.num_nodes();
  const unsigned k = c.cell.spares;

  TrialRng rng = TrialRng::for_trial(c.seed, c.cell.index, t);
  stage("campaign.draw");
  const FaultDraw draw = c.model->draw(c.fabric, k, rng);
  done();
  const std::uint64_t faults = draw.faults.count();
  bool success = false;
  if (faults <= k) {
    stage("ft.survive");
    success = ftdb::monotone_embedding_survives(c.target, c.fabric, draw.faults);
    done();
  }
  tally.fault_count.add(static_cast<double>(faults));
  if (success) ++tally.success;

  const bool want_stretch = c.metrics.stretch && success;
  const bool want_collective = c.schedule.has_value();
  std::optional<sim::Machine> reconfigured;
  if (success && (c.metrics.diameter || want_stretch || want_collective || c.metrics.traffic)) {
    stage("sim.machine");
    reconfigured.emplace(sim::Machine::reconfigured(c.fabric, draw.faults, n));
    done();
  }
  auto violation = [&](const std::string& what) {
    out.fail("trial " + std::to_string(t) + ": " + what);
  };
  if (success && (c.metrics.diameter || want_stretch)) {
    if (c.metrics.diameter) {
      stage("sim.live_graph");
      const Graph live = reconfigured->live_logical_graph(c.target);
      done();
      stage("graph.diameter");
      const std::uint32_t d = ftdb::diameter(live);
      done();
      if (d != c.target_diameter) {
        violation("reconfigured diameter " + std::to_string(d) + " != target diameter " +
                  std::to_string(c.target_diameter));
      }
    }
    if (want_stretch) {
      std::vector<std::pair<NodeId, NodeId>> pairs;
      for (std::uint64_t i = 0; i < c.metrics.stretch_sample_pairs; ++i) {
        const auto src = static_cast<NodeId>(rng.next_u64() % n);
        const auto dst = static_cast<NodeId>(rng.next_u64() % n);
        if (src != dst) pairs.emplace_back(src, dst);
      }
      stage("sim.stretch");
      sim::max_route_stretch_sampled(*reconfigured, c.params.base, c.params.digits, pairs);
      done();
    }
  } else if (!success && c.metrics.diameter) {
    stage("graph.induced_subgraph");
    const ftdb::InducedSubgraph survivors =
        ftdb::induced_subgraph_excluding(c.fabric, draw.faults.nodes());
    done();
    if (survivors.graph.num_nodes() != 0) {
      stage("graph.diameter");
      ftdb::diameter(survivors.graph);
      done();
    }
  }

  std::vector<NodeId> hit;  // faulty logical nodes of the bare target
  for (const NodeId f : draw.faults.nodes()) {
    if (f < n) hit.push_back(f);
  }
  if (want_collective) {
    if (success) {
      stage("sim.collective");
      const sim::ScheduleRunResult run =
          sim::execute_schedule(*reconfigured, c.target, *c.schedule, c.identity);
      done();
      if (!run.completed() || run.total_cycles != c.baseline_cycles) {
        violation("collective slowdown " + std::to_string(run.total_cycles) + "/" +
                  std::to_string(c.baseline_cycles) + " is not exactly 1.0");
      }
    } else {
      std::vector<NodeId> survivors;
      for (NodeId v = 0; v < n; ++v) {
        if (!draw.faults.is_faulty(v)) survivors.push_back(v);
      }
      if (!survivors.empty()) {
        stage("sim.machine");
        const sim::Machine degraded = sim::Machine::direct_with_faults(c.target, FaultSet(n, hit));
        done();
        stage("sim.schedule_build");
        const sim::Schedule sched =
            sim::build_schedule(c.schedule->kind, static_cast<std::uint32_t>(survivors.size()));
        done();
        ++tally.schedule_builds;
        stage("sim.collective");
        sim::execute_schedule(degraded, c.target, sched, survivors);
        done();
        stage("sim.collective");
        sim::execute_schedule(*c.healthy, c.target, sched, survivors);
        done();
      }
    }
  }

  if (c.metrics.traffic) {
    const std::uint64_t traffic_seed = rng.next_u64();
    stage("sim.traffic_gen");
    const std::vector<sim::Packet> packets =
        sim::zipf_traffic(n, c.traffic_packets, c.metrics.traffic_spec.theta, traffic_seed);
    done();
    sim::EngineOptions engine;
    engine.max_cycles = c.traffic_max_cycles;
    if (success) {
      stage("sim.engine");
      const sim::SimStats stats = sim::run_packets(*reconfigured, c.target, packets, engine);
      done();
      tally.engine_cycles += stats.cycles;
      if (stats.delivered_fraction() != 1.0) {
        violation("traffic delivered fraction " + std::to_string(stats.delivered_fraction()) +
                  " on a reconfigured machine");
      }
    } else if (hit.size() < n) {
      stage("sim.machine");
      const sim::Machine degraded = sim::Machine::direct_with_faults(c.target, FaultSet(n, hit));
      done();
      stage("sim.engine");
      tally.engine_cycles += sim::run_packets(degraded, c.target, packets, engine).cycles;
      done();
    }
  }
  tr.end(trial);
}

/// Checks one run_campaign result against the spec and the paper's
/// reconfigured-diameter claim (visible in the report's accumulators).
void check_result(const CampaignResult& result, const ScenarioSpec& spec, Outcome& out) {
  if (result.scenarios.size() != 1 || result.scenarios[0].trials != spec.trials) {
    out.fail("run_campaign did not run exactly one cell of " + std::to_string(spec.trials) +
                 " trials",
             spec.trials);
    return;
  }
  const ScenarioResult& r = result.scenarios[0];
  const StreamingStats& d = r.reconfigured_diameter;
  if (d.count != r.reconfig_success ||
      (d.count > 0 && (d.min != r.target_diameter || d.max != r.target_diameter))) {
    out.fail("reconfigured diameter is not the target diameter on every successful trial",
             spec.trials);
  }
}

struct CampaignRun {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  CampaignResult result;
};

CampaignRun timed_campaign(const ScenarioSpec& spec, unsigned threads) {
  CampaignOptions options;
  options.threads = threads;
  CampaignRun run;
  const Clock::time_point t0 = Clock::now();
  run.result = run_campaign(spec, options);
  run.seconds = seconds_between(t0, Clock::now());
  run.digest = fnv1a(campaign_report_json(run.result));
  return run;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Outcome run_campaign_workload(const Options& options, const ScenarioSpec& spec) {
  Outcome out;
  const ScenarioCase cell = expand_grid(spec).at(0);
  const double setup_s =
      median_setup_seconds(5, 0.5, [&] { CellRunner runner(spec, cell); });

  // Timed window: back-to-back run_campaign calls on the identical spec.
  std::vector<double> call_s;
  std::vector<double> rates;
  std::uint64_t digest = 0;
  const double window = options.trace ? options.seconds / 2 : options.seconds;
  const Clock::time_point start = Clock::now();
  CampaignRun first;
  while (call_s.empty() || seconds_between(start, Clock::now()) < window) {
    CampaignRun run = timed_campaign(spec, kThreads);
    out.attempted += spec.trials;
    check_result(run.result, spec, out);
    if (call_s.empty()) {
      digest = run.digest;
      first = std::move(run);
    } else if (run.digest != digest) {
      out.fail("report digest " + hex(run.digest) + " differs from the first call's " +
                   hex(digest),
               spec.trials);
    }
    call_s.push_back(run.seconds);
    rates.push_back(static_cast<double>(spec.trials) / run.seconds);
  }
  const double rss = peak_rss_mib();

  // Determinism: one threads = 1 run must produce the same report.
  const CampaignRun serial = timed_campaign(spec, 1);
  out.attempted += spec.trials;
  if (serial.digest != digest) {
    out.fail("threads = 1 report digest " + hex(serial.digest) + " differs from threads = " +
                 std::to_string(kThreads) + " digest " + hex(digest),
             spec.trials);
  }
  const ScenarioResult& r = first.result.scenarios.at(0);
  char line[240];
  std::snprintf(line, sizeof line,
                "%s: %zu run_campaign calls of %llu trials (threads = %u); call p50 %.1f ms; "
                "success %llu/%llu; report digest %s (threads = 1 run: %.1f ms)",
                options.workload.c_str(), call_s.size(),
                static_cast<unsigned long long>(spec.trials), kThreads,
                median(call_s) * 1e3, static_cast<unsigned long long>(r.reconfig_success),
                static_cast<unsigned long long>(r.trials), hex(digest).c_str(),
                serial.seconds * 1e3);
  out.note(line);
  if (!options.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("throughput_per_s", median(rates), "1/s");
    out.metric("latency_p50_ms", median(call_s) * 1e3, "ms");
    return out;
  }

  // Traced run: each of the program's blocks is timed under one span before
  // and after its trials are replayed stage by stage, so program and replica
  // see the same machine conditions. The replica folds its fault counts per
  // block and merges them in block order, as the runner does, so the means
  // agree to the last bit.
  Tracer tracer;
  CellRunner runner(spec, cell);
  const CellReplica replica(spec, cell);
  ScenarioResult merged;
  ReplicaTally tally;
  auto timed_block = [&](std::uint64_t b) {
    const std::uint32_t span = tracer.begin("campaign.block", 0, b);
    ScenarioResult block = runner.run_block(b);
    tracer.end(span);
    return block;
  };
  for (std::uint64_t b = 0; b < runner.num_blocks(); ++b) {
    const ScenarioResult block = timed_block(b);
    merged.merge(block);
    ReplicaTally block_tally;
    const std::uint64_t lo = b * kTrialBlock;
    const std::uint64_t hi = std::min(spec.trials, lo + kTrialBlock);
    for (std::uint64_t t = lo; t < hi; ++t) replay_trial(replica, t, tracer, block_tally, out);
    tally.success += block_tally.success;
    tally.schedule_builds += block_tally.schedule_builds;
    tally.engine_cycles += block_tally.engine_cycles;
    tally.fault_count.merge(block_tally.fault_count);
    const ScenarioResult again = timed_block(b);
    if (again.reconfig_success != block.reconfig_success ||
        again.fault_count.mean != block.fault_count.mean) {
      out.fail("CellRunner::run_block(" + std::to_string(b) + ") is not repeatable", 0);
    }
  }
  out.attempted += 3 * spec.trials;

  // Replica honesty: the replay must reproduce the program's observable results.
  for (const ScenarioResult* program : {&r, static_cast<const ScenarioResult*>(&merged)}) {
    if (tally.success != program->reconfig_success ||
        tally.fault_count.mean != program->fault_count.mean) {
      char why[200];
      std::snprintf(why, sizeof why,
                    "replica success %llu, fault mean %.17g; program success %llu, fault mean "
                    "%.17g",
                    static_cast<unsigned long long>(tally.success), tally.fault_count.mean,
                    static_cast<unsigned long long>(program->reconfig_success),
                    program->fault_count.mean);
      out.fail(why, 0);
    }
  }

  dump_spans(tracer.spans(), options.scratch + "/spans-" + options.workload + ".tsv", out);
  const SpanSummary s = summarize(tracer.spans());
  const double trials = static_cast<double>(spec.trials);
  const char* stages[] = {"campaign.draw",        "ft.survive",      "sim.machine",
                          "sim.live_graph",       "graph.diameter",  "graph.induced_subgraph",
                          "sim.stretch",          "sim.schedule_build", "sim.collective",
                          "sim.traffic_gen",      "sim.engine"};
  double stage_ns = 0.0;
  for (const char* name : stages) stage_ns += s[name].total_ns;
  const double block_trial_us = s["campaign.block"].total_ns / (2 * trials) / 1e3;
  const double stage_trial_us = stage_ns / trials / 1e3;
  out.metric("campaign.draw_us", s["campaign.draw"].mean_ns() / 1e3, "us");
  out.metric("ft.survive_us", s["ft.survive"].mean_ns() / 1e3, "us");
  out.metric("sim.machine_us", s["sim.machine"].mean_ns() / 1e3, "us");
  out.metric("sim.live_graph_us", s["sim.live_graph"].mean_ns() / 1e3, "us");
  out.metric("graph.diameter_ms", s["graph.diameter"].mean_ns() / 1e6, "ms");
  out.metric("graph.induced_subgraph_us", s["graph.induced_subgraph"].mean_ns() / 1e3, "us");
  out.metric("sim.stretch_us", s["sim.stretch"].mean_ns() / 1e3, "us");
  out.metric("sim.schedule_build_us", s["sim.schedule_build"].mean_ns() / 1e3, "us");
  out.metric("sim.schedule_builds", static_cast<double>(tally.schedule_builds) / trials, "1/trial");
  out.metric("sim.collective_us", s["sim.collective"].mean_ns() / 1e3, "us");
  out.metric("sim.traffic_gen_us", s["sim.traffic_gen"].mean_ns() / 1e3, "us");
  out.metric("sim.engine_us", s["sim.engine"].mean_ns() / 1e3, "us");
  out.metric("sim.engine_cycles", static_cast<double>(tally.engine_cycles) / trials,
             "cycles/trial");
  out.metric("campaign.block_ms", s["campaign.block"].mean_ns() / 1e6, "ms");
  out.metric("campaign.self_us", block_trial_us - stage_trial_us, "us");
  out.metric("campaign.success_frac", static_cast<double>(tally.success) / trials, "ratio");
  out.metric("campaign.stage_coverage", stage_trial_us / block_trial_us, "ratio");
  const double traced_trial_us = s["campaign.trial"].mean_ns() / 1e3;
  out.metric("trace.overhead_frac", (traced_trial_us - block_trial_us) / block_trial_us, "ratio");
  std::snprintf(line, sizeof line,
                "per trial: program block %.1f us, replica stages %.1f us (coverage %.3f); "
                "success %llu/%llu trials; tracing overhead: traced replica trial %.1f us - "
                "untraced block trial %.1f us = %.1f us",
                block_trial_us, stage_trial_us, stage_trial_us / block_trial_us,
                static_cast<unsigned long long>(tally.success),
                static_cast<unsigned long long>(spec.trials), traced_trial_us, block_trial_us,
                traced_trial_us - block_trial_us);
  out.note(line);
  if (stage_trial_us < 0.9 * block_trial_us) {
    out.note("warning: the named stages cover less than 90% of the per-trial time");
  }
  return out;
}

}  // namespace

Outcome run_campaign_cell(const Options& options) {
  return run_campaign_workload(options, cell_spec(options.seed));
}

Outcome run_campaign_survival(const Options& options) {
  return run_campaign_workload(options, survival_spec(options.seed));
}

}  // namespace perfbench
