// PERF6: throughput of the fault-injection campaign engine — trials/second
// for a representative grid cell per fault model, plus one mixed-grid run.
// The campaign runner is the production workload multiplier (every scenario
// re-runs construction, fault drawing, reconfiguration checks and survivor
// metrics thousands of times), so its per-trial cost is the number to watch.
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/bench_registry.hpp"
#include "campaign/elastic/elastic.hpp"
#include "campaign/elastic/partial.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"

namespace {

using ftdb::analysis::BenchContext;
using namespace ftdb::campaign;

ScenarioSpec base_spec(std::uint64_t trials) {
  ScenarioSpec spec;
  spec.name = "perf";
  spec.seed = 99;
  spec.trials = trials;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 6}};
  spec.spares = {3};
  spec.metrics.diameter = true;
  spec.metrics.stretch = false;
  spec.metrics.mttf = true;
  return spec;
}

void run_model(BenchContext& ctx, const FaultModelSpec& model, std::uint64_t trials) {
  ScenarioSpec spec = base_spec(trials);
  spec.fault_models = {model};
  // Serial on purpose: wall times must not depend on sibling benchmarks'
  // thread pools (the bench runner may already be running us in parallel).
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  const ScenarioResult& r = result.scenarios.front();
  ctx.report("trials", static_cast<double>(r.trials));
  ctx.report("success_rate", r.success_rate());
  ctx.report("mean_faults", r.fault_count.mean);
}

FTDB_BENCH(campaign_iid, "perf_campaign/iid_debruijn_h6_k3") {
  run_model(ctx, {FaultModelKind::IidBernoulli, 0.02, 1.0, 100.0, 1.0}, 2000);
}

FTDB_BENCH(campaign_clustered, "perf_campaign/clustered_debruijn_h6_k3") {
  run_model(ctx, {FaultModelKind::Clustered, 0.005, 1.0, 100.0, 1.0}, 2000);
}

FTDB_BENCH(campaign_weibull, "perf_campaign/weibull_debruijn_h6_k3") {
  run_model(ctx, {FaultModelKind::Weibull, 0.0, 1.5, 500.0, 30.0}, 2000);
}

FTDB_BENCH(campaign_adversarial, "perf_campaign/adversarial_debruijn_h6_k3") {
  run_model(ctx, {FaultModelKind::Adversarial, 0.02, 1.0, 100.0, 1.0}, 2000);
}

FTDB_BENCH(campaign_grid, "perf_campaign/grid_2topo_x3k_x2models") {
  ScenarioSpec spec = base_spec(250);
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 5},
                     {TopologyFamily::ShuffleExchange, 2, 5}};
  spec.spares = {0, 2, 4};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.03, 1.0, 100.0, 1.0},
                       {FaultModelKind::Adversarial, 0.03, 1.0, 100.0, 1.0}};
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  ctx.report("scenarios", static_cast<double>(result.scenarios.size()));
  double successes = 0;
  for (const ScenarioResult& r : result.scenarios) {
    successes += static_cast<double>(r.reconfig_success);
  }
  ctx.report("total_successes", successes);
}

// --- block pool, compaction snapshot, cell-filtered directories -------------

/// A 12-cell grid of 1024-trial cells: 48 blocks through the block pool.
/// Serial on purpose, like everything above — this measures the pool's
/// per-block overhead (cursor traffic, in-order merge bookkeeping), not
/// machine parallelism the bench runner's own pool would fight with.
FTDB_BENCH(campaign_sched, "perf_campaign/steal_12cells_x4blocks_serial") {
  ScenarioSpec spec = base_spec(1024);
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4},
                     {TopologyFamily::ShuffleExchange, 2, 4}};
  spec.spares = {0, 2, 4};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.03, 1.0, 100.0, 1.0},
                       {FaultModelKind::Block, 0.03, 1.0, 100.0, 1.0, 3}};
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  ctx.report("scenarios", static_cast<double>(result.scenarios.size()));
  ctx.report("blocks", static_cast<double>(result.scenarios.size() *
                                           num_trial_blocks(spec.trials)));
}

/// The elastic compaction snapshot (compacted.ckpt): JSON -> reparse for a
/// mid-flight campaign shape (every cell a merged prefix + one parked block).
FTDB_BENCH(campaign_ckpt, "perf_campaign/checkpoint_roundtrip_24cells") {
  ScenarioSpec spec = base_spec(256);
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.03, 1.0, 100.0, 1.0}};
  const ScenarioResult partial = run_campaign(spec, {.threads = 1}).scenarios.front();
  spec.trials = 1024;  // what the block partials above are a slice of
  Checkpoint ckpt;
  for (std::size_t i = 0; i < 24; ++i) {
    CellProgress cell;
    cell.scenario_index = i;
    cell.prefix_blocks = 1;
    cell.prefix = partial;
    cell.extra.emplace_back(2, partial);
    ckpt.cells.push_back(std::move(cell));
  }
  std::string json;
  std::size_t cells = 0;
  for (int rep = 0; rep < 20; ++rep) {
    json = checkpoint_to_json(spec, ckpt);
    cells += parse_checkpoint(json).cells.size();
  }
  ctx.report("roundtrips", 20.0);
  ctx.report("bytes", static_cast<double>(json.size()));
  ctx.report("cells_reparsed", static_cast<double>(cells));
}

/// The distributed path end to end: two cell-filtered elastic directories
/// plus the fingerprint- and coverage-checked merge, with the merged
/// report's byte-identity to the single-machine run reported as a metric
/// (1.0 = identical).
FTDB_BENCH(campaign_shard, "perf_campaign/shard2_run_merge") {
  ScenarioSpec spec = base_spec(512);
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4},
                     {TopologyFamily::ShuffleExchange, 2, 4}};
  spec.spares = {0, 3};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.03, 1.0, 100.0, 1.0}};
  const std::string reference = campaign_report_json(run_campaign(spec, {.threads = 1}));

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      std::string("ftdb_perf_cells_").append(std::to_string(::getpid()));
  std::vector<std::string> dirs;
  for (std::uint32_t s = 0; s < 2; ++s) {
    elastic::ElasticOptions options;
    options.dir = (root / std::to_string(s)).string();
    options.worker_id = "bench";
    options.threads = 1;
    options.cells = {s, 2};
    options.fsync = false;
    std::filesystem::remove_all(options.dir);
    elastic::run_elastic_worker(spec, options);
    dirs.push_back(options.dir);
  }
  const CampaignResult merged = elastic::merge_elastic(spec, dirs);
  std::filesystem::remove_all(root);
  ctx.report("merge_byte_identical",
             campaign_report_json(merged) == reference ? 1.0 : 0.0);
  ctx.report("shards", 2.0);
}

}  // namespace
