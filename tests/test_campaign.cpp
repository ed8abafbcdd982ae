// Campaign engine tests: spec parsing, fault-model properties, streaming
// statistics, scheduling-independent determinism, crash/resume and
// cell-split identity through the elastic directory, and the
// statistical-sanity check tying the iid model's empirical survival back to
// the paper's binomial tail (ft/spares.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>

#include "campaign/elastic/elastic.hpp"
#include "campaign/elastic/partial.hpp"
#include "campaign/fault_models.hpp"
#include "campaign/report.hpp"
#include "campaign/rng.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "ft/bus_ft.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/spares.hpp"
#include "ft/tolerance.hpp"
#include "graph/algorithms.hpp"
#include "graph/subgraph.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/reconfigured_routing.hpp"
#include "sim/schedule.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::campaign {
namespace {

/// The diameter, stretch and mttf switches as given; every other metric
/// keeps its default.
MetricSet metric_set(bool diameter, bool stretch, bool mttf) {
  MetricSet m;
  m.diameter = diameter;
  m.stretch = stretch;
  m.mttf = mttf;
  return m;
}

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "test";
  spec.seed = 7;
  spec.trials = 200;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {0, 2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0},
                       {FaultModelKind::Adversarial, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics = metric_set(true, false, true);
  return spec;
}

// --- the durable path: elastic directories -----------------------------------

/// A fresh (absent) elastic directory under the test temp dir.
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/ftdb_campaign_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

elastic::ElasticOptions durable(const std::string& dir, unsigned threads,
                                ShardSpec cells = {}) {
  elastic::ElasticOptions options;
  options.dir = dir;
  options.worker_id = "test-worker";
  options.threads = threads;
  options.cells = cells;
  options.poll_seconds = 0.01;
  options.fsync = false;
  return options;
}

/// Runs one cell-filtered elastic directory to completion; returns its path.
std::string run_cells(const ScenarioSpec& spec, ShardSpec cells, unsigned threads,
                      const std::string& tag) {
  const std::string dir = fresh_dir(tag);
  const elastic::ElasticResult r = elastic::run_elastic_worker(spec, durable(dir, threads, cells));
  EXPECT_TRUE(r.campaign_complete);
  return dir;
}

std::string merged_report(const ScenarioSpec& spec, const std::vector<std::string>& dirs) {
  return campaign_report_json(elastic::merge_elastic(spec, dirs));
}

/// The durable identity drills: a worker crashed after two blocks and
/// resumed under its own id, and two --cells directories merged, both give
/// the serial report's bytes.
void expect_durable_drills(const ScenarioSpec& spec, const std::string& serial,
                           const std::string& tag) {
  const std::string dir = fresh_dir(tag + "_crash");
  elastic::ElasticOptions crash = durable(dir, 1);
  crash.stop_after_blocks = 2;
  EXPECT_THROW(elastic::run_elastic_worker(spec, crash), elastic::ElasticAborted);
  const elastic::ElasticResult resumed = elastic::run_elastic_worker(spec, durable(dir, 2));
  EXPECT_GE(resumed.blocks_skipped, 2u);
  EXPECT_EQ(merged_report(spec, {dir}), serial);

  const std::string d0 = run_cells(spec, {0, 2}, 2, tag + "_0");
  const std::string d1 = run_cells(spec, {1, 2}, 3, tag + "_1");
  EXPECT_EQ(merged_report(spec, {d0, d1}), serial);
}

TEST(TrialRng, CounterBasedStreamsAreStable) {
  TrialRng a = TrialRng::for_trial(42, 3, 17);
  TrialRng b = TrialRng::for_trial(42, 3, 17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different counters diverge immediately.
  TrialRng c = TrialRng::for_trial(42, 3, 18);
  TrialRng d = TrialRng::for_trial(42, 4, 17);
  TrialRng e = TrialRng::for_trial(43, 3, 17);
  TrialRng base = TrialRng::for_trial(42, 3, 17);
  const std::uint64_t first = base.next_u64();
  EXPECT_NE(first, c.next_u64());
  EXPECT_NE(first, d.next_u64());
  EXPECT_NE(first, e.next_u64());
}

TEST(TrialRng, UnitDrawsAreInRange) {
  TrialRng rng(123);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(StreamingStats, MatchesDirectMomentsAndMergeIsExactOnSplit) {
  std::mt19937_64 rng(5);
  std::vector<double> xs(257);
  double sum = 0.0;
  for (double& x : xs) {
    x = std::uniform_real_distribution<double>(-3.0, 7.0)(rng);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  const double variance = ss / static_cast<double>(xs.size() - 1);

  StreamingStats whole;
  for (const double x : xs) whole.add(x);
  EXPECT_NEAR(whole.mean, mean, 1e-12);
  EXPECT_NEAR(whole.variance(), variance, 1e-10);

  StreamingStats left, right;
  for (std::size_t i = 0; i < xs.size(); ++i) (i < 100 ? left : right).add(xs[i]);
  left.merge(right);
  EXPECT_EQ(left.count, whole.count);
  EXPECT_NEAR(left.mean, whole.mean, 1e-12);
  EXPECT_NEAR(left.m2, whole.m2, 1e-9);
  EXPECT_EQ(left.min, whole.min);
  EXPECT_EQ(left.max, whole.max);
}

TEST(WilsonInterval, BracketsTheRateAndTightensWithN) {
  const WilsonInterval small = wilson_interval(8, 10);
  const WilsonInterval large = wilson_interval(800, 1000);
  EXPECT_LT(small.lo, 0.8);
  EXPECT_GT(small.hi, 0.8);
  EXPECT_LT(large.lo, 0.8);
  EXPECT_GT(large.hi, 0.8);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
  // Degenerate corners stay inside [0, 1].
  EXPECT_EQ(wilson_interval(0, 0).lo, 0.0);
  EXPECT_EQ(wilson_interval(0, 0).hi, 1.0);
  EXPECT_GE(wilson_interval(0, 50).lo, 0.0);
  EXPECT_LE(wilson_interval(50, 50).hi, 1.0);
}

TEST(ScenarioSpec, ParseExampleAndRoundTrip) {
  const ScenarioSpec spec = parse_scenario_spec(example_spec_json());
  EXPECT_EQ(spec.name, "example");
  EXPECT_EQ(spec.trials, 200u);
  EXPECT_EQ(spec.topologies.size(), 2u);
  EXPECT_EQ(spec.spares.size(), 3u);
  EXPECT_EQ(spec.fault_models.size(), 5u);
  EXPECT_EQ(spec.fault_models.back().kind, FaultModelKind::Block);
  EXPECT_EQ(spec.fault_models.back().width, 3u);
  EXPECT_TRUE(spec.metrics.diameter);
  EXPECT_FALSE(spec.metrics.stretch);
  EXPECT_TRUE(spec.metrics.mttf);
  // Canonical JSON reparses to the same canonical JSON (fixed point).
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));
  EXPECT_EQ(spec_fingerprint(spec), spec_fingerprint(parse_scenario_spec(canon)));
}

TEST(ScenarioSpec, GridDimensionsExpand) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "base": [2, 3], "digits": [3, 4]}],
    "spares": [0, 1, 2],
    "fault_models": [{"kind": "iid", "p": 0.1}]
  })");
  EXPECT_EQ(spec.topologies.size(), 4u);  // 2 bases x 2 digit values
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 12u);
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);
}

TEST(ScenarioSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_scenario_spec("not json"), std::runtime_error);
  EXPECT_THROW(parse_scenario_spec(R"({"spares": [1]})"), std::runtime_error);
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "torus", "digits": 3}],
    "spares": [1], "fault_models": [{"kind": "iid", "p": 0.1}]
  })"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 3}],
    "spares": [1], "fault_models": [{"kind": "iid", "p": 1.5}]
  })"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 3}],
    "spares": [1], "fault_models": [{"kind": "iid", "p": 0.1}],
    "metrics": ["latency"]
  })"),
               std::runtime_error);
  // "base" on a base-2-only family must be rejected, not silently dropped.
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "shuffle_exchange", "base": [3, 4], "digits": 4}],
    "spares": [1], "fault_models": [{"kind": "iid", "p": 0.1}]
  })"),
               std::runtime_error);
}

TEST(FaultModels, DrawsAreDeterministicPerTrialKey) {
  const Graph fabric = ft_debruijn_base2(4, 2);
  for (const FaultModelKind kind :
       {FaultModelKind::IidBernoulli, FaultModelKind::Clustered, FaultModelKind::Weibull,
        FaultModelKind::Adversarial, FaultModelKind::Block}) {
    FaultModelSpec spec;
    spec.kind = kind;
    spec.p = 0.08;
    spec.shape = 1.3;
    spec.scale = 50.0;
    spec.horizon = 10.0;
    const auto model = make_fault_model(spec);
    model->prepare(fabric, 2);
    TrialRng r1 = TrialRng::for_trial(9, 0, 5);
    TrialRng r2 = TrialRng::for_trial(9, 0, 5);
    const FaultDraw a = model->draw(fabric, 2, r1);
    const FaultDraw b = model->draw(fabric, 2, r2);
    EXPECT_EQ(a.faults.nodes(), b.faults.nodes()) << fault_model_kind_name(kind);
    EXPECT_EQ(a.spare_exhaustion_time, b.spare_exhaustion_time);
  }
}

TEST(FaultModels, IidFaultCountTracksExpectation) {
  const Graph fabric = ft_debruijn_base2(5, 3);  // 35 nodes
  const auto model = make_fault_model({FaultModelKind::IidBernoulli, 0.1, 1.0, 1.0, 1.0});
  model->prepare(fabric, 3);
  double total = 0.0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    TrialRng rng = TrialRng::for_trial(11, 0, static_cast<std::uint64_t>(t));
    total += static_cast<double>(model->draw(fabric, 3, rng).faults.count());
  }
  const double expected = 0.1 * static_cast<double>(fabric.num_nodes());
  EXPECT_NEAR(total / trials, expected, 0.3);  // sd of the mean ~ 0.03
}

TEST(FaultModels, ClusteredFaultsAreSeedNeighborhoodUnions) {
  const Graph fabric = ft_debruijn_base2(4, 2);
  const auto model = make_fault_model({FaultModelKind::Clustered, 0.05, 1.0, 1.0, 1.0});
  model->prepare(fabric, 2);
  for (int t = 0; t < 50; ++t) {
    TrialRng rng = TrialRng::for_trial(3, 0, static_cast<std::uint64_t>(t));
    const FaultDraw draw = model->draw(fabric, 2, rng);
    // The fault set is S u N(S) for some seed set S, so whenever it is
    // non-empty at least one faulty node (a seed) has its entire closed
    // neighborhood faulty.
    if (draw.faults.count() > 0) {
      bool some_full_neighborhood = false;
      for (const NodeId f : draw.faults.nodes()) {
        bool full = true;
        for (const NodeId u : fabric.neighbors(f)) full = full && draw.faults.is_faulty(u);
        some_full_neighborhood = some_full_neighborhood || full;
      }
      EXPECT_TRUE(some_full_neighborhood) << "no plausible seed in fault set, trial " << t;
    }
  }
}

TEST(FaultModels, AdversarialTargetsHighestDegreesFirst) {
  const Graph fabric = ft_debruijn_base2(4, 2);
  const auto model = make_fault_model({FaultModelKind::Adversarial, 0.15, 1.0, 1.0, 1.0});
  model->prepare(fabric, 2);
  // Expected attack order: degrees descending, ties by id.
  std::vector<NodeId> order(fabric.num_nodes());
  for (std::size_t v = 0; v < order.size(); ++v) order[v] = static_cast<NodeId>(v);
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return fabric.degree(a) > fabric.degree(b); });
  for (int t = 0; t < 20; ++t) {
    TrialRng rng = TrialRng::for_trial(4, 0, static_cast<std::uint64_t>(t));
    const FaultDraw draw = model->draw(fabric, 2, rng);
    std::vector<NodeId> expected(order.begin(),
                                 order.begin() + static_cast<std::ptrdiff_t>(draw.faults.count()));
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(draw.faults.nodes(), expected);
  }
}

TEST(FaultModels, WeibullHorizonMonotone) {
  const Graph fabric = ft_debruijn_base2(4, 1);
  const auto narrow = make_fault_model({FaultModelKind::Weibull, 0.0, 1.5, 100.0, 10.0});
  const auto wide = make_fault_model({FaultModelKind::Weibull, 0.0, 1.5, 100.0, 60.0});
  for (int t = 0; t < 50; ++t) {
    TrialRng r1 = TrialRng::for_trial(6, 0, static_cast<std::uint64_t>(t));
    TrialRng r2 = TrialRng::for_trial(6, 0, static_cast<std::uint64_t>(t));
    const FaultDraw a = narrow->draw(fabric, 1, r1);
    const FaultDraw b = wide->draw(fabric, 1, r2);
    // Same lifetimes, wider window: the narrow fault set is contained in the
    // wide one, and the exhaustion clock is identical.
    for (const NodeId f : a.faults.nodes()) EXPECT_TRUE(b.faults.is_faulty(f));
    EXPECT_EQ(a.spare_exhaustion_time, b.spare_exhaustion_time);
  }
}

TEST(FaultModels, BlockFaultsAreOneCyclicRunWithinWidth) {
  const Graph fabric = ft_debruijn_base2(4, 2);  // 18 nodes
  const std::uint64_t max_width = 5;
  FaultModelSpec spec;
  spec.kind = FaultModelKind::Block;
  spec.p = 0.1;
  spec.width = max_width;
  const auto model = make_fault_model(spec);
  model->prepare(fabric, 2);
  const std::size_t n = fabric.num_nodes();
  for (int t = 0; t < 200; ++t) {
    TrialRng rng = TrialRng::for_trial(21, 0, static_cast<std::uint64_t>(t));
    const FaultDraw draw = model->draw(fabric, 2, rng);
    const std::uint64_t width = draw.faults.count();
    ASSERT_GE(width, 1u);
    ASSERT_LE(width, max_width);
    // Contiguity on the label cycle: the complement of the fault set contains
    // exactly one maximal run (equivalently, the fault set has exactly one
    // cyclic boundary where faulty -> healthy).
    std::size_t boundaries = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const bool here = draw.faults.is_faulty(static_cast<NodeId>(v));
      const bool next = draw.faults.is_faulty(static_cast<NodeId>((v + 1) % n));
      if (here && !next) ++boundaries;
    }
    EXPECT_EQ(boundaries, width == n ? 0u : 1u) << "trial " << t;
    // The clock: a block outweighing the spares exhausts them at its onset,
    // smaller blocks never do.
    if (width >= 3) {
      EXPECT_TRUE(std::isfinite(draw.spare_exhaustion_time)) << "trial " << t;
      EXPECT_GE(draw.spare_exhaustion_time, 1.0);
    } else {
      EXPECT_TRUE(std::isinf(draw.spare_exhaustion_time)) << "trial " << t;
    }
  }
}

TEST(FaultModels, BlockSpecRoundTripsThroughCanonicalJson) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "block", "p": 0.07, "width": 6}]
  })");
  ASSERT_EQ(spec.fault_models.size(), 1u);
  EXPECT_EQ(spec.fault_models[0].kind, FaultModelKind::Block);
  EXPECT_EQ(spec.fault_models[0].width, 6u);
  EXPECT_EQ(spec.fault_models[0].label(), "block(p=0.07,w=6)");
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "block", "p": 0.07, "width": 0}]
  })"),
               std::runtime_error);
}

TEST(Campaign, BlockModelSurvivesIffBlockFitsTheSpares) {
  // Point-to-point B^k tolerates *any* <= k faults, so under the block model
  // the survival curve collapses to "width <= k": every under-budget block is
  // absorbed regardless of offset.
  ScenarioSpec spec;
  spec.seed = 31;
  spec.trials = 400;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {
      {FaultModelKind::Block, 0.1, 1.0, 100.0, 1.0, 4}};
  spec.metrics = metric_set(false, false, true);
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const ScenarioResult& r = result.scenarios.front();
  EXPECT_EQ(r.trials, 400u);
  for (const SurvivalPoint& p : r.survival_curve) {
    if (p.faults <= 2) {
      EXPECT_EQ(p.survived, p.trials) << "width=" << p.faults;
    } else {
      EXPECT_EQ(p.survived, 0u) << "width=" << p.faults;
    }
  }
}

TEST(Campaign, WeibullAnalyticMttfMatchesEmpiricalMean) {
  ScenarioSpec spec;
  spec.seed = 404;
  spec.trials = 3000;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::Weibull, 0.0, 1.5, 300.0, 40.0}};
  spec.metrics = metric_set(false, false, true);
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const ScenarioResult& r = result.scenarios.front();
  ASSERT_TRUE(std::isfinite(r.analytic_mttf));
  EXPECT_NEAR(r.analytic_mttf, weibull_mttf(r.fabric_nodes, 2, 1.5, 300.0), 1e-12);
  // The model draws full lifetimes, so the empirical column estimates exactly
  // this expectation: check within 5 standard errors.
  ASSERT_EQ(r.mttf.count, spec.trials);
  const double stderr_mean = r.mttf.stddev() / std::sqrt(static_cast<double>(r.mttf.count));
  EXPECT_NEAR(r.mttf.mean, r.analytic_mttf, 5.0 * stderr_mean);
}

TEST(Campaign, SampledStretchIsDeterministicAndBounded) {
  ScenarioSpec spec;
  spec.seed = 77;
  spec.trials = 60;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 1.0, 1.0}};
  spec.metrics = metric_set(false, true, false);
  spec.metrics.stretch_sample_pairs = 24;

  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions pooled;
  pooled.threads = 3;
  const CampaignResult a = run_campaign(spec, serial);
  const CampaignResult b = run_campaign(spec, pooled);
  EXPECT_EQ(campaign_report_json(a), campaign_report_json(b));

  const ScenarioResult& r = a.scenarios.front();
  ASSERT_GT(r.route_stretch.count, 0u);
  EXPECT_GE(r.route_stretch.min, 1.0);
  EXPECT_LE(r.route_stretch.max, 4.0);  // logical routes never exceed h hops

  // The knob is part of the canonical spec (and so of the fingerprint).
  ScenarioSpec full = spec;
  full.metrics.stretch_sample_pairs = 0;
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(full));

  // Sampling can only lower the maximum: the full audit dominates it.
  ScenarioSpec audit = spec;
  audit.metrics.stretch_sample_pairs = 0;
  const CampaignResult c = run_campaign(audit, serial);
  EXPECT_LE(r.route_stretch.max, c.scenarios.front().route_stretch.max + 1e-12);
}

TEST(Campaign, ShuffleExchangeStretchIsPopulatedAndBounded) {
  // The stretch metric now covers the whole point-to-point family: an SE cell
  // with stretch on must actually populate route_stretch (it used to be a
  // de Bruijn-only metric), with the SE route-length bound 2h as the ceiling.
  ScenarioSpec spec;
  spec.seed = 19;
  spec.trials = 60;
  spec.topologies = {{TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.08, 1.0, 1.0, 1.0}};
  spec.metrics = metric_set(false, true, false);

  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions pooled;
  pooled.threads = 3;
  const CampaignResult a = run_campaign(spec, serial);
  EXPECT_EQ(campaign_report_json(a), campaign_report_json(run_campaign(spec, pooled)));

  const ScenarioResult& r = a.scenarios.front();
  ASSERT_GT(r.route_stretch.count, 0u);
  EXPECT_GE(r.route_stretch.min, 1.0);
  EXPECT_LE(r.route_stretch.max, 6.0);  // SE logical routes never exceed 2h hops

  // Sampled SE stretch stays under the full audit, like the de Bruijn case.
  ScenarioSpec sampled = spec;
  sampled.metrics.stretch_sample_pairs = 24;
  const CampaignResult s = run_campaign(sampled, serial);
  ASSERT_GT(s.scenarios.front().route_stretch.count, 0u);
  EXPECT_LE(s.scenarios.front().route_stretch.max, r.route_stretch.max + 1e-12);
}

TEST(Campaign, ReportIsIndependentOfThreadCount) {
  const ScenarioSpec spec = small_spec();
  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions pooled;
  pooled.threads = 3;
  const std::string a = campaign_report_json(run_campaign(spec, serial));
  const std::string b = campaign_report_json(run_campaign(spec, pooled));
  EXPECT_EQ(a, b);  // byte-identical, not merely statistically equal
}

TEST(Campaign, ResumeFromCheckpointReproducesTheFullReport) {
  const ScenarioSpec spec = small_spec();
  const CampaignResult full = run_campaign(spec, {.threads = 2});
  ASSERT_EQ(full.scenarios.size(), 8u);

  // Craft a mid-campaign compaction snapshot: only the first three scenarios
  // done.
  Checkpoint ckpt;
  for (std::size_t i = 0; i < 3; ++i) {
    ckpt.cells.push_back({i, num_trial_blocks(spec.trials), full.scenarios[i], {}});
  }
  const std::string dir = fresh_dir("resume");
  elastic::ensure_elastic_dir(spec, dir);
  std::ofstream(dir + "/compacted.ckpt", std::ios::binary) << checkpoint_to_json(spec, ckpt);

  const elastic::ElasticResult r = elastic::run_elastic_worker(spec, durable(dir, 2));
  EXPECT_EQ(r.blocks_run, 5u);  // one block per cell; three cells were durable
  const CampaignResult resumed = elastic::merge_elastic(spec, {dir});
  EXPECT_EQ(campaign_report_json(resumed), campaign_report_json(full));
  EXPECT_EQ(campaign_report_markdown(resumed), campaign_report_markdown(full));
  EXPECT_EQ(campaign_report_csv(resumed), campaign_report_csv(full));
}

TEST(Campaign, CheckpointFingerprintMismatchIsRejected) {
  const ScenarioSpec spec = small_spec();
  ScenarioSpec other = spec;
  other.seed += 1;
  const std::string dir = fresh_dir("respec");
  elastic::ensure_elastic_dir(spec, dir);
  std::ofstream(dir + "/compacted.ckpt", std::ios::binary) << checkpoint_to_json(other, {});
  EXPECT_THROW(elastic::run_elastic_worker(spec, durable(dir, 1)), std::runtime_error);
  EXPECT_THROW(elastic::merge_elastic(spec, {dir}), std::runtime_error);
}

TEST(Campaign, EmpiricalSurvivalMatchesBinomialTail) {
  // Statistical sanity: under the iid model the paper's guarantee makes
  // machine survival exactly P[Binomial(N+k, p) <= k]; the empirical rate's
  // 99.9% Wilson interval must cover the analytic value.
  ScenarioSpec spec;
  spec.name = "stat";
  spec.seed = 1234;
  spec.trials = 4000;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.06, 1.0, 1.0, 1.0}};
  spec.metrics = metric_set(false, false, false);
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  ASSERT_EQ(result.scenarios.size(), 1u);
  const ScenarioResult& r = result.scenarios.front();
  const double analytic = static_cast<double>(survival_probability(16, 2, 0.06L));
  EXPECT_NEAR(r.analytic_survival, analytic, 1e-12);
  const WilsonInterval ci = r.success_ci(3.29);  // z for 99.9%
  EXPECT_GE(analytic, ci.lo) << "rate " << r.success_rate();
  EXPECT_LE(analytic, ci.hi) << "rate " << r.success_rate();
  // Survival curve partitions the trials and is consistent with the
  // theorem: every under-budget draw survives, every over-budget one dies.
  std::uint64_t total = 0;
  for (const SurvivalPoint& p : r.survival_curve) {
    total += p.trials;
    if (p.faults <= 2) {
      EXPECT_EQ(p.survived, p.trials) << "faults=" << p.faults;
    } else {
      EXPECT_EQ(p.survived, 0u) << "faults=" << p.faults;
    }
  }
  EXPECT_EQ(total, spec.trials);
}

TEST(Campaign, ReconfiguredDiameterMatchesTargetOnEverySuccess) {
  ScenarioSpec spec;
  spec.seed = 99;
  spec.trials = 300;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 1.0, 1.0}};
  spec.metrics = metric_set(true, false, false);
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  const ScenarioResult& r = result.scenarios.front();
  ASSERT_GT(r.reconfig_success, 0u);
  EXPECT_EQ(r.reconfigured_diameter.count, r.reconfig_success);
  // The paper's reconfiguration is dilation-1: measured diameter is exactly
  // the target diameter on every successful trial (zero variance).
  EXPECT_EQ(r.reconfigured_diameter.min, static_cast<double>(r.target_diameter));
  EXPECT_EQ(r.reconfigured_diameter.max, static_cast<double>(r.target_diameter));
}

/// The diameter statistics of one cell, recomputed trial by trial from
/// public calls: the fault draw, the survival check, and then a full BFS
/// diameter — of the rebuilt live logical graph on success, of the
/// survivor-induced fabric on failure — with no edge-for-edge shortcut.
struct DiameterReplay {
  StreamingStats reconfigured;
  StreamingStats degraded;
  std::uint64_t disconnected = 0;
};

/// A cell's target and fault-tolerant fabric, built from public calls the
/// way the runner builds them.
struct CellMachines {
  Graph target;
  Graph fabric;
  std::optional<BusGraph> bus;
};

CellMachines build_cell_machines(const ScenarioCase& cell) {
  const unsigned h = cell.topology.digits;
  const unsigned k = cell.spares;
  CellMachines out;
  switch (cell.topology.family) {
    case TopologyFamily::DeBruijn:
      out.target = debruijn_graph({.base = cell.topology.base, .digits = h});
      out.fabric = ft_debruijn_graph({.base = cell.topology.base, .digits = h, .spares = k});
      break;
    case TopologyFamily::ShuffleExchange:
      out.target = shuffle_exchange_graph(h);
      out.fabric = ft_shuffle_exchange_natural(h, k).ft_graph;
      break;
    case TopologyFamily::Bus:
      out.bus = bus_ft_debruijn_base2(h, k);
      out.target = debruijn_base2(h);
      out.fabric = out.bus->realized_graph();
      break;
  }
  return out;
}

DiameterReplay replay_diameters(const ScenarioSpec& spec, const ScenarioCase& cell) {
  const unsigned k = cell.spares;
  const auto [target, fabric, bus] = build_cell_machines(cell);
  const std::unique_ptr<FaultModel> model = make_fault_model(cell.fault_model);
  model->prepare(fabric, k);
  if (bus) model->prepare_bus(*bus, k);

  DiameterReplay out;
  for (std::uint64_t t = 0; t < spec.trials; ++t) {
    TrialRng rng = TrialRng::for_trial(spec.seed, cell.index, t);
    const FaultDraw draw = model->draw(fabric, k, rng);
    bool success = false;
    if (draw.faults.count() <= k) {
      if (bus && !draw.bus_faults.empty()) {
        const std::optional<FaultSet> resolved =
            resolve_bus_faults(*bus, k, draw.faults.nodes(), draw.bus_faults);
        success = resolved && bus_monotone_embedding_survives(target, *bus, *resolved);
      } else if (bus) {
        success = bus_monotone_embedding_survives(target, *bus, draw.faults);
      } else {
        success = monotone_embedding_survives(target, fabric, draw.faults);
      }
    }
    if (success) {
      const sim::Machine m = sim::Machine::reconfigured(fabric, draw.faults, target.num_nodes());
      const std::uint32_t d = diameter(m.live_logical_graph(target));
      if (d != kUnreachable) out.reconfigured.add(static_cast<double>(d));
    } else {
      const InducedSubgraph survivors = induced_subgraph_excluding(fabric, draw.faults.nodes());
      const std::uint32_t d =
          survivors.graph.num_nodes() == 0 ? kUnreachable : diameter(survivors.graph);
      if (d == kUnreachable) {
        ++out.disconnected;
      } else {
        out.degraded.add(static_cast<double>(d));
      }
    }
  }
  return out;
}

void expect_stats_match(const StreamingStats& got, const StreamingStats& want,
                        const std::string& where) {
  EXPECT_EQ(got.count, want.count) << where;
  if (want.count == 0) return;
  EXPECT_EQ(got.min, want.min) << where;
  EXPECT_EQ(got.max, want.max) << where;
  // Block-wise merging may round differently from the sequential replay.
  EXPECT_NEAR(got.mean, want.mean, 1e-9 * std::max(1.0, want.mean)) << where;
}

TEST(Campaign, DiameterMetricMatchesAnIndependentPerTrialReplay) {
  ScenarioSpec spec;
  spec.seed = 4711;
  spec.trials = 300;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 5},
                     {TopologyFamily::ShuffleExchange, 2, 5},
                     {TopologyFamily::Bus, 2, 4}};
  spec.spares = {1, 3};
  FaultModelSpec iid;
  iid.kind = FaultModelKind::IidBernoulli;
  iid.p = 0.06;
  FaultModelSpec heavy = iid;  // shatters the survivors often enough
  heavy.p = 0.35;
  FaultModelSpec bus_iid;
  bus_iid.kind = FaultModelKind::BusIid;
  bus_iid.p = 0.03;
  spec.fault_models = {iid, heavy, bus_iid};
  spec.metrics = {};
  spec.metrics.diameter = true;
  spec.metrics.mttf = false;
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  ASSERT_EQ(result.scenarios.size(), cells.size());

  std::uint64_t successes = 0;
  std::uint64_t degraded = 0;
  std::uint64_t disconnected = 0;
  for (const ScenarioCase& cell : cells) {
    const ScenarioResult& r = result.scenarios[cell.index];
    const DiameterReplay want = replay_diameters(spec, cell);
    expect_stats_match(r.reconfigured_diameter, want.reconfigured, r.label + " reconfigured");
    expect_stats_match(r.degraded_diameter, want.degraded, r.label + " degraded");
    EXPECT_EQ(r.degraded_disconnected, want.disconnected) << r.label;
    successes += want.reconfigured.count;
    degraded += want.degraded.count;
    disconnected += want.disconnected;
  }
  // The grid must exercise every branch for the comparison to mean anything.
  EXPECT_GT(successes, 0u);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(disconnected, 0u);
}

TEST(Campaign, BusFamilyRunsAndBoundsDegree) {
  ScenarioSpec spec;
  spec.seed = 5;
  spec.trials = 100;
  spec.topologies = {{TopologyFamily::Bus, 2, 3}};
  spec.spares = {1};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 1.0, 1.0}};
  spec.metrics = metric_set(true, false, true);
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  const ScenarioResult& r = result.scenarios.front();
  EXPECT_EQ(r.trials, 100u);
  EXPECT_EQ(r.target_nodes, 8u);
  EXPECT_EQ(r.fabric_nodes, 9u);  // 2^3 + 1
  EXPECT_GT(r.reconfig_success, 0u);
}

// --- block pool, crash/resume, cell-filtered directories --------------------

/// 4 cells x 600 trials = 3 blocks per cell: enough blocks that out-of-order
/// merges and mid-cell crashes all actually happen.
ScenarioSpec multiblock_spec() {
  ScenarioSpec spec;
  spec.name = "blocks";
  spec.seed = 99;
  spec.trials = 600;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {0, 2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics = metric_set(true, false, true);
  return spec;
}

TEST(Scheduler, BlockPoolIsByteIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = multiblock_spec();
  ASSERT_EQ(num_trial_blocks(spec.trials), 3u);
  const std::string serial = campaign_report_json(run_campaign(spec, {.threads = 1}));
  for (const unsigned threads : {2u, 5u}) {
    EXPECT_EQ(serial, campaign_report_json(run_campaign(spec, {.threads = threads})))
        << threads << " threads";
  }
}

TEST(Scheduler, BlockPoolRefillsAndRethrowsTheFirstException) {
  std::atomic<int> ran{0};
  int refills = 0;
  run_block_pool(3, {{0, 0}, {0, 1}}, 6, [&](const BlockUnit&) { ++ran; },
                 [&](std::vector<BlockUnit>& more) {
                   if (++refills > 2) return;  // the third refill drains the pool
                   more.push_back({1, 0});
                   more.push_back({1, 1});
                 });
  EXPECT_EQ(ran.load(), 6);
  EXPECT_EQ(refills, 3);
  EXPECT_THROW(run_block_pool(2, {{0, 0}, {0, 1}, {0, 2}}, 3,
                              [](const BlockUnit& u) {
                                if (u.block == 1) throw std::runtime_error("block failed");
                              }),
               std::runtime_error);
}

TEST(Scheduler, StopAfterBlocksWritesAResumableBlockGranularCheckpoint) {
  const ScenarioSpec spec = multiblock_spec();
  const std::string full = campaign_report_json(run_campaign(spec, {.threads = 2}));

  const std::string dir = fresh_dir("midcell");
  elastic::ElasticOptions crash = durable(dir, 1);
  crash.stop_after_blocks = 2;  // dies inside the first cell (3 blocks each)
  EXPECT_THROW(elastic::run_elastic_worker(spec, crash), elastic::ElasticAborted);

  const elastic::ElasticProgress progress = elastic::load_elastic_progress(spec, dir);
  EXPECT_EQ(progress.durable_blocks, 2u);
  // Mid-cell granularity: some cell stopped strictly between 0 and all blocks.
  bool mid_cell = false;
  for (const CellProgress& c : progress.cells) {
    mid_cell = mid_cell || (c.prefix_blocks > 0 && c.prefix_blocks < 3);
  }
  EXPECT_TRUE(mid_cell);

  // The same worker id resumes at once: its own lease is reclaimed without
  // waiting out the (60 s) TTL.
  elastic::ElasticOptions resume = durable(dir, 3);
  resume.lease_ttl_seconds = 60;
  const elastic::ElasticResult resumed = elastic::run_elastic_worker(spec, resume);
  EXPECT_EQ(resumed.leases_reclaimed, 1u);
  EXPECT_EQ(resumed.blocks_skipped, 2u);
  EXPECT_EQ(resumed.blocks_run, 10u);
  EXPECT_EQ(merged_report(spec, {dir}), full);
}

TEST(Scheduler, PartialFinalBlockResumesCorrectly) {
  // 300 trials = one full block + a 44-trial tail block; crash between them.
  ScenarioSpec spec = multiblock_spec();
  spec.trials = 300;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  ASSERT_EQ(num_trial_blocks(spec.trials), 2u);
  const std::string full = campaign_report_json(run_campaign(spec, {.threads = 1}));

  const std::string dir = fresh_dir("tail");
  elastic::ElasticOptions crash = durable(dir, 1);
  crash.stop_after_blocks = 1;
  EXPECT_THROW(elastic::run_elastic_worker(spec, crash), elastic::ElasticAborted);

  const elastic::ElasticResult resumed = elastic::run_elastic_worker(spec, durable(dir, 1));
  EXPECT_EQ(resumed.blocks_skipped, 1u);
  EXPECT_EQ(resumed.blocks_run, 1u);
  const CampaignResult merged = elastic::merge_elastic(spec, {dir});
  EXPECT_EQ(merged.scenarios.front().trials, 300u);
  EXPECT_EQ(campaign_report_json(merged), full);
}

TEST(Shard, TwoShardsMergeByteIdenticalToSingleMachineRun) {
  const ScenarioSpec spec = multiblock_spec();
  const std::string reference = campaign_report_json(run_campaign(spec, {.threads = 1}));

  const std::string d0 = run_cells(spec, {0, 2}, 3, "m0");
  const std::string d1 = run_cells(spec, {1, 2}, 2, "m1");
  // Round-robin partition: each directory holds every second cell only.
  const elastic::ElasticProgress p0 = elastic::load_elastic_progress(spec, d0);
  const elastic::ElasticProgress p1 = elastic::load_elastic_progress(spec, d1);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(p0.cells[i].prefix_blocks, i % 2 == 0 ? 3u : 0u) << i;
    EXPECT_EQ(p1.cells[i].prefix_blocks, i % 2 == 1 ? 3u : 0u) << i;
  }

  const CampaignResult merged = elastic::merge_elastic(spec, {d0, d1});
  EXPECT_EQ(campaign_report_json(merged), reference);
  EXPECT_EQ(campaign_report_csv(merged), campaign_report_csv(run_campaign(spec, {.threads = 2})));
}

TEST(Shard, MergeOfOnePartialIsIdentity) {
  const ScenarioSpec spec = small_spec();
  const CampaignResult direct = run_campaign(spec, {.threads = 2});
  const std::string whole = run_cells(spec, {0, 1}, 2, "whole");
  EXPECT_EQ(merged_report(spec, {whole}), campaign_report_json(direct));
}

TEST(Shard, MergeRejectsFingerprintMismatchAndGaps) {
  const ScenarioSpec spec = multiblock_spec();
  const std::string reference = campaign_report_json(run_campaign(spec, {.threads = 1}));
  const std::string d0 = run_cells(spec, {0, 2}, 2, "r0");
  const std::string d1 = run_cells(spec, {1, 2}, 2, "r1");

  // Coverage gap: a missing slice leaves cells uncovered.
  EXPECT_THROW(elastic::merge_elastic(spec, {d0}), std::runtime_error);
  EXPECT_THROW(elastic::merge_elastic(spec, {d0, d0}), std::runtime_error);
  // Fingerprint mismatch: a directory of a different spec is rejected.
  ScenarioSpec other = spec;
  other.seed += 1;
  const std::string o0 = run_cells(other, {0, 2}, 2, "o0");
  EXPECT_THROW(elastic::merge_elastic(spec, {o0, d1}), std::runtime_error);
  // Incomplete cell: a crash-cut slice cannot be merged.
  const std::string cut = fresh_dir("cut");
  elastic::ElasticOptions crash = durable(cut, 1, {0, 2});
  crash.stop_after_blocks = 1;
  EXPECT_THROW(elastic::run_elastic_worker(spec, crash), elastic::ElasticAborted);
  EXPECT_THROW(elastic::merge_elastic(spec, {cut, d1}), std::runtime_error);
  // Torn accumulator: all blocks claimed but the prefix carries fewer trials
  // (a corrupted file must not merge into a silently wrong report).
  const std::string torn = fresh_dir("torn");
  std::filesystem::copy(d0, torn, std::filesystem::copy_options::recursive);
  {
    std::ifstream in(torn + "/compacted.ckpt", std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    Checkpoint ckpt = parse_checkpoint(text.str());
    ASSERT_FALSE(ckpt.cells.empty());
    ckpt.cells.front().prefix.trials -= 1;
    std::ofstream(torn + "/compacted.ckpt", std::ios::binary | std::ios::trunc)
        << checkpoint_to_json(spec, ckpt);
  }
  EXPECT_THROW(elastic::merge_elastic(spec, {torn, d1}), std::runtime_error);
  // The intact pair merges; a (cell, block) given twice is deduplicated.
  EXPECT_EQ(merged_report(spec, {d0, d1}), reference);
  EXPECT_EQ(merged_report(spec, {d0, d1, d0}), reference);
}

TEST(Checkpoint, BlockGranularProgressRoundTripsThroughJson) {
  const ScenarioSpec spec = multiblock_spec();
  // One block's genuine partial accumulators, replicated into a progress
  // shape with both a prefix and an out-of-prefix block.
  ScenarioSpec one_block = spec;
  one_block.trials = 256;
  const ScenarioResult partial = run_campaign(one_block, {.threads = 1}).scenarios.front();

  Checkpoint ckpt;
  CellProgress cp;
  cp.scenario_index = 1;
  cp.prefix_blocks = 1;
  cp.prefix = partial;
  cp.extra.emplace_back(2, partial);
  ckpt.cells.push_back(cp);

  const std::string json = checkpoint_to_json(spec, ckpt);
  const Checkpoint reparsed = parse_checkpoint(json);
  EXPECT_EQ(reparsed.fingerprint, spec_fingerprint(spec));
  ASSERT_EQ(reparsed.cells.size(), 1u);
  const CellProgress& rp = reparsed.cells.front();
  EXPECT_EQ(rp.scenario_index, 1u);
  EXPECT_EQ(rp.prefix_blocks, 1u);
  ASSERT_EQ(rp.extra.size(), 1u);
  EXPECT_EQ(rp.extra.front().first, 2u);
  // Accumulators survive bit-exactly (the %.17g round-trip the byte-identity
  // guarantees rest on).
  EXPECT_EQ(rp.prefix.fault_count.mean, partial.fault_count.mean);
  EXPECT_EQ(rp.prefix.fault_count.m2, partial.fault_count.m2);
  EXPECT_EQ(rp.extra.front().second.mttf.m2, partial.mttf.m2);
  EXPECT_EQ(rp.prefix.survival_curve.size(), partial.survival_curve.size());
  // The snapshot is always the whole campaign's; one shard's is refused.
  EXPECT_EQ(json, checkpoint_to_json(spec, reparsed));
  std::string sliced = json;
  const std::size_t count_at = sliced.find("\"count\"", sliced.find("\"shard\""));
  ASSERT_NE(count_at, std::string::npos);
  const std::size_t one_at = sliced.find('1', count_at);
  sliced[one_at] = '2';
  EXPECT_THROW(parse_checkpoint(sliced), std::runtime_error);

  // The compaction snapshot a finished worker leaves is this document, its
  // cells the finished accumulators.
  const std::string dir = run_cells(one_block, {0, 1}, 2, "snapshot");
  std::ifstream in(dir + "/compacted.ckpt", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  const Checkpoint snapshot = parse_checkpoint(text.str());
  const CampaignResult direct = run_campaign(one_block, {.threads = 1});
  ASSERT_EQ(snapshot.cells.size(), direct.scenarios.size());
  for (std::size_t i = 0; i < direct.scenarios.size(); ++i) {
    EXPECT_EQ(snapshot.cells[i].prefix.label, direct.scenarios[i].label);
    EXPECT_EQ(snapshot.cells[i].prefix.mttf.m2, direct.scenarios[i].mttf.m2);
  }
}

TEST(Shard, ValidationRejectsBadCoordinates) {
  const ScenarioSpec spec = small_spec();
  EXPECT_THROW(elastic::run_elastic_worker(spec, durable(fresh_dir("bad0"), 1, {3, 2})),
               std::runtime_error);  // index out of range
  EXPECT_THROW(elastic::run_elastic_worker(spec, durable(fresh_dir("bad1"), 1, {0, 200})),
               std::runtime_error);  // more slices than cells
}

TEST(CampaignReport, ValidateAcceptsOwnOutputAndRejectsGarbage) {
  const CampaignResult result = run_campaign(small_spec(), {.threads = 2});
  const std::string json = campaign_report_json(result);
  EXPECT_EQ(validate_campaign_report(json), result.scenarios.size());
  EXPECT_THROW(validate_campaign_report("{}"), std::runtime_error);
  EXPECT_THROW(validate_campaign_report(R"({"schema": "ftdb-bench-v1"})"), std::runtime_error);
}

// --- collective metric -------------------------------------------------------

/// De Bruijn + SE cells with the collective metric on: small enough that the
/// per-trial schedule execution stays cheap, multi-block so determinism is
/// exercised across steals, checkpoints and shards.
ScenarioSpec collective_spec() {
  ScenarioSpec spec;
  spec.name = "collective";
  spec.seed = 17;
  spec.trials = 600;  // 3 blocks
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {0, 2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = false;
  spec.metrics.mttf = false;
  spec.metrics.collective = true;
  spec.metrics.collective_schedule = "all_to_all_bruck";
  return spec;
}

TEST(Collective, SpecParsesRoundTripsAndFingerprints) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "iid", "p": 0.05}],
    "metrics": ["collective"],
    "collective_schedule": "allreduce_recursive_halving_doubling"
  })");
  EXPECT_TRUE(spec.metrics.collective);
  EXPECT_FALSE(spec.metrics.diameter);
  EXPECT_EQ(spec.metrics.collective_schedule, "allreduce_recursive_halving_doubling");
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));

  // The schedule choice is part of the spec identity.
  ScenarioSpec other = spec;
  other.metrics.collective_schedule = "allgather_bruck";
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(other));

  // An unknown schedule name is rejected up front, not at trial time.
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "iid", "p": 0.05}],
    "metrics": ["collective"],
    "collective_schedule": "all_to_all_quantum"
  })"),
               std::runtime_error);

  // Specs without the metric keep their pre-collective canonical form (and so
  // their fingerprints): the key only appears when the metric is on.
  const std::string plain = scenario_spec_to_json(small_spec());
  EXPECT_EQ(plain.find("collective"), std::string::npos);
}

TEST(Collective, SlowdownIsExactlyOneOnEverySuccessfulTrial) {
  // The end-to-end form of the dilation-1 claim: a successful reconfiguration
  // presents the identical logical graph, so the collective completes in
  // exactly the healthy baseline cycles — slowdown 1.0 with zero variance.
  ScenarioSpec spec = collective_spec();
  spec.trials = 300;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const ScenarioResult& r = result.scenarios.front();
  ASSERT_GT(r.reconfig_success, 0u);
  EXPECT_EQ(r.collective_rounds, 4u);  // ceil(log2 16) on B_{2,4}
  EXPECT_GT(r.collective_baseline_cycles, 0u);
  ASSERT_GT(r.collective_slowdown.count, 0u);
  EXPECT_GE(r.collective_slowdown.count, r.reconfig_success);
  // Degraded trials are priced against the survivors' own healthy schedule;
  // rerouting usually costs cycles, but a reshaped route set can also shed a
  // little queueing, so the per-trial ratio hovers around 1 rather than being
  // bounded below by it.
  EXPECT_GT(r.collective_slowdown.min, 0.9);
  EXPECT_GE(r.collective_slowdown.max, 1.0);
  EXPECT_GT(r.collective_hop_cycles.count, 0u);
  EXPECT_GE(r.collective_congestion.min, 1.0);

  // The slowdown curve partitions the trials that ran the collective.
  std::uint64_t curve_trials = 0;
  std::uint64_t curve_unreachable = 0;
  ASSERT_FALSE(r.slowdown_curve.empty());
  for (const SlowdownPoint& p : r.slowdown_curve) {
    curve_trials += p.trials;
    curve_unreachable += p.unreachable;
    if (p.faults <= 2) {
      // Under-budget draws reconfigure, so their mean slowdown is exactly 1.
      EXPECT_EQ(p.unreachable, 0u) << "faults=" << p.faults;
      EXPECT_EQ(p.mean_slowdown(), 1.0) << "faults=" << p.faults;
    }
  }
  EXPECT_EQ(curve_trials, spec.trials);
  EXPECT_EQ(curve_unreachable, r.collective_unreachable);
}

TEST(Collective, ReportIsByteIdenticalAcrossThreadsResumeAndShards) {
  const ScenarioSpec spec = collective_spec();
  const std::string serial = campaign_report_json(run_campaign(spec, {.threads = 1}));
  EXPECT_EQ(serial, campaign_report_json(run_campaign(spec, {.threads = 3})));
  // Crash after two blocks and resume, then two --cells slices: same bytes.
  expect_durable_drills(spec, serial, "coll");
  // And the validator accepts the document, slowdown-curve invariants included.
  EXPECT_EQ(validate_campaign_report(serial), 4u);
}

/// One de Bruijn and one SE cell with the collective and Zipf traffic on.
ScenarioSpec collective_traffic_spec() {
  ScenarioSpec spec;
  spec.name = "collective-traffic";
  spec.seed = 31;
  spec.trials = 300;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = false;
  spec.metrics.mttf = false;
  spec.metrics.collective = true;
  spec.metrics.collective_schedule = "all_to_all_bruck";
  spec.metrics.traffic = true;
  spec.metrics.traffic_spec.pattern = "zipf";
  spec.metrics.traffic_spec.packets_per_node = 2;
  return spec;
}

void expect_same_run(const sim::ScheduleRunResult& got, const sim::ScheduleRunResult& want,
                     const std::string& where) {
  EXPECT_EQ(got.rounds, want.rounds) << where;
  EXPECT_EQ(got.total_cycles, want.total_cycles) << where;
  EXPECT_EQ(got.total_hop_cycles, want.total_hop_cycles) << where;
  EXPECT_EQ(got.max_link_congestion, want.max_link_congestion) << where;
  EXPECT_EQ(got.logical_sends, want.logical_sends) << where;
  EXPECT_EQ(got.delivered, want.delivered) << where;
  EXPECT_EQ(got.undeliverable, want.undeliverable) << where;
  EXPECT_EQ(got.timed_out, want.timed_out) << where;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Collective, EverySuccessfulTrialReplaysToTheHealthyRun) {
  // The runner hands every successful trial the healthy run without running
  // the engine. Replay each one through the engine on its reconfigured
  // machine: every field must equal the healthy run.
  const ScenarioSpec spec = collective_traffic_spec();
  CampaignOptions options;
  options.threads = 2;
  const CampaignResult result = run_campaign(spec, options);
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  ASSERT_EQ(result.scenarios.size(), 2u);
  for (const ScenarioCase& cell : cells) {
    const ScenarioResult& r = result.scenarios[cell.index];
    const auto [target, fabric, bus] = build_cell_machines(cell);
    const auto n = static_cast<std::uint32_t>(target.num_nodes());
    const sim::Schedule schedule =
        sim::build_schedule(sim::schedule_kind_from_name(spec.metrics.collective_schedule), n);
    std::vector<NodeId> ranks(n);
    for (NodeId v = 0; v < n; ++v) ranks[v] = v;
    const sim::ScheduleRunResult healthy =
        sim::execute_schedule(sim::Machine::direct(target), target, schedule, ranks);
    EXPECT_EQ(r.collective_baseline_cycles, healthy.total_cycles) << r.label;

    const std::unique_ptr<FaultModel> model = make_fault_model(cell.fault_model);
    model->prepare(fabric, cell.spares);
    std::uint64_t successes = 0;
    for (std::uint64_t t = 0; t < spec.trials; ++t) {
      TrialRng rng = TrialRng::for_trial(spec.seed, cell.index, t);
      const FaultDraw draw = model->draw(fabric, cell.spares, rng);
      if (draw.faults.count() > cell.spares ||
          !monotone_embedding_survives(target, fabric, draw.faults)) {
        continue;
      }
      const sim::Machine machine = sim::Machine::reconfigured(fabric, draw.faults, n);
      expect_same_run(sim::execute_schedule(machine, target, schedule, ranks), healthy,
                      r.label + " trial " + std::to_string(t));
      ++successes;
    }
    EXPECT_EQ(successes, r.reconfig_success) << r.label;
    EXPECT_GT(successes, 0u) << r.label;
    EXPECT_LT(successes, spec.trials) << r.label;  // failed trials run the engine too
  }
  // Report bytes pinned to the value measured before the healthy run was
  // reused.
  EXPECT_EQ(fnv1a(campaign_report_json(result)), 0xe95a6af615bca039ull);
}

TEST(Collective, MachineMissingATargetLinkRunsTheEngine) {
  const Graph target = debruijn_base2(4);
  const Graph ft = ft_debruijn_base2(4, 2);
  const FaultSet faults(ft.num_nodes(), {3, 9});
  const auto n = static_cast<std::uint32_t>(target.num_nodes());
  const sim::Schedule schedule = sim::build_schedule(sim::ScheduleKind::AllToAllBruck, n);
  std::vector<NodeId> ranks(n);
  for (NodeId v = 0; v < n; ++v) ranks[v] = v;
  const sim::ScheduleRunResult healthy =
      sim::execute_schedule(sim::Machine::direct(target), target, schedule, ranks);

  // Intact: the shortcut returns what the engine would have computed.
  const sim::Machine intact = sim::Machine::reconfigured(ft, faults, n);
  ASSERT_TRUE(intact.presents(target));
  expect_same_run(sim::execute_schedule_or_reuse(intact, true, healthy, target, schedule, ranks),
                  sim::execute_schedule(intact, target, schedule, ranks), "intact");

  // Cut the physical image of one target link.
  const Edge cut = target.edges().front();
  const NodeId pu = intact.to_physical[cut.u];
  const NodeId pv = intact.to_physical[cut.v];
  GraphBuilder b(ft.num_nodes());
  for (const Edge& e : ft.edges()) {
    if (!((e.u == pu && e.v == pv) || (e.u == pv && e.v == pu))) b.add_edge(e.u, e.v);
  }
  const sim::Machine broken = sim::Machine::reconfigured(b.build(), faults, n);
  ASSERT_FALSE(broken.presents(target));
  const sim::ScheduleRunResult engine = sim::execute_schedule(broken, target, schedule, ranks);
  // The detour shows in the run, so a wrongly reused healthy run would be
  // caught below.
  ASSERT_NE(engine.total_hop_cycles, healthy.total_hop_cycles);
  expect_same_run(sim::execute_schedule_or_reuse(broken, broken.presents(target), healthy, target,
                                                 schedule, ranks),
                  engine, "cut " + std::to_string(cut.u) + "-" + std::to_string(cut.v));
}

TEST(Collective, CsvAndMarkdownCarryTheSlowdownColumns) {
  ScenarioSpec spec = collective_spec();
  spec.trials = 200;
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const std::string csv = campaign_report_csv(result);
  EXPECT_NE(csv.find("collective_slowdown_mean"), std::string::npos);
  EXPECT_NE(csv.find("slowdown_by_faults"), std::string::npos);
  const std::string md = campaign_report_markdown(result);
  EXPECT_NE(md.find("Collective slowdown by drawn fault count"), std::string::npos);
  // Old-schema documents (no collective fields) still parse and validate.
  const std::string plain = campaign_report_json(run_campaign(small_spec(), {.threads = 2}));
  EXPECT_EQ(validate_campaign_report(plain), 8u);
}

TEST(Collective, BusFamilySkipsTheMetricGracefully) {
  ScenarioSpec spec = collective_spec();
  spec.trials = 100;
  spec.topologies = {{TopologyFamily::Bus, 2, 3}};
  spec.spares = {1};
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  const ScenarioResult& r = result.scenarios.front();
  EXPECT_EQ(r.trials, 100u);
  EXPECT_EQ(r.collective_slowdown.count, 0u);
  EXPECT_EQ(r.collective_rounds, 0u);
  EXPECT_TRUE(r.slowdown_curve.empty());
  EXPECT_EQ(validate_campaign_report(campaign_report_json(result)), 1u);
}

TEST(CampaignReport, CsvQuotesLabelsAndHasHeader) {
  const CampaignResult result = run_campaign(small_spec(), {.threads = 2});
  const std::string csv = campaign_report_csv(result);
  EXPECT_EQ(csv.rfind("scenario_index,label,", 0), 0u);
  // Labels contain commas, so every data row must carry quoted labels.
  EXPECT_NE(csv.find("\"debruijn(m=2,h=4) k=0 iid(p=0.05)\""), std::string::npos);
}

// --- bus-fault models --------------------------------------------------------

/// Bus-machine cells under both bus-fault processes; multi-block (600 trials
/// = 3 blocks) so the identity drills exercise steals, checkpoints and shard
/// merges on the bus code path.
ScenarioSpec bus_fault_spec() {
  ScenarioSpec spec;
  spec.name = "bus-faults";
  spec.seed = 31;
  spec.trials = 600;
  spec.topologies = {{TopologyFamily::Bus, 2, 3}};
  spec.spares = {0, 2};
  spec.fault_models = {{FaultModelKind::BusIid, 0.04, 1.0, 100.0, 1.0},
                       {FaultModelKind::BusClustered, 0.02, 1.0, 100.0, 1.0}};
  spec.metrics = metric_set(true, false, true);
  return spec;
}

TEST(BusFaults, SpecParsesRoundTripsAndFingerprints) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topologies": [{"family": "bus", "digits": 3}],
    "spares": [1],
    "fault_models": [{"kind": "bus_iid", "p": 0.04}, {"kind": "bus_clustered", "p": 0.02}]
  })");
  ASSERT_EQ(spec.fault_models.size(), 2u);
  EXPECT_EQ(spec.fault_models[0].kind, FaultModelKind::BusIid);
  EXPECT_EQ(spec.fault_models[1].kind, FaultModelKind::BusClustered);
  EXPECT_NE(spec.fault_models[0].label().find("bus_iid"), std::string::npos);
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));
  // The failure probability is part of the spec identity.
  ScenarioSpec other = spec;
  other.fault_models[0].p = 0.05;
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(other));
}

TEST(FaultModels, BusModelsDrawSortedBusesWhoseDriversAreFaulty) {
  const BusGraph bus = bus_ft_debruijn_base2(3, 2);
  const Graph fabric = bus.realized_graph();
  for (const FaultModelKind kind : {FaultModelKind::BusIid, FaultModelKind::BusClustered}) {
    const auto model = make_fault_model({kind, 0.15, 1.0, 100.0, 1.0});
    model->prepare(fabric, 2);
    model->prepare_bus(bus, 2);
    bool saw_bus_fault = false;
    for (std::uint64_t trial = 0; trial < 50; ++trial) {
      TrialRng rng = TrialRng::for_trial(9, 0, trial);
      TrialRng replay = TrialRng::for_trial(9, 0, trial);
      const FaultDraw a = model->draw(fabric, 2, rng);
      const FaultDraw b = model->draw(fabric, 2, replay);
      EXPECT_EQ(a.faults.nodes(), b.faults.nodes());
      EXPECT_EQ(a.bus_faults, b.bus_faults);
      EXPECT_TRUE(std::is_sorted(a.bus_faults.begin(), a.bus_faults.end()));
      EXPECT_TRUE(std::adjacent_find(a.bus_faults.begin(), a.bus_faults.end()) ==
                  a.bus_faults.end());
      saw_bus_fault = saw_bus_fault || !a.bus_faults.empty();
      for (const std::uint32_t b_id : a.bus_faults) {
        ASSERT_LT(b_id, bus.num_buses());
        // Section V discipline: a failed bus silences its driver.
        EXPECT_TRUE(a.faults.is_faulty(bus.bus(b_id).driver)) << "bus " << b_id;
      }
    }
    EXPECT_TRUE(saw_bus_fault) << "p=0.15 over 50 trials drew no bus faults";
  }
}

TEST(BusFaults, BusIidAnalyticColumnsMatchTheIidClosedForms) {
  // bus_iid fails each bus independently and each bus silences one driver, so
  // its analytic companions are the node-iid closed forms at the same p.
  ScenarioSpec spec = bus_fault_spec();
  spec.trials = 200;
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::BusIid, 0.04, 1.0, 100.0, 1.0}};
  ScenarioSpec iid = spec;
  iid.fault_models = {{FaultModelKind::IidBernoulli, 0.04, 1.0, 100.0, 1.0}};
  const ScenarioResult rb = run_campaign(spec, {.threads = 1}).scenarios.front();
  const ScenarioResult ri = run_campaign(iid, {.threads = 1}).scenarios.front();
  ASSERT_FALSE(std::isnan(rb.analytic_survival));
  ASSERT_FALSE(std::isnan(rb.analytic_mttf));
  EXPECT_EQ(rb.analytic_survival, ri.analytic_survival);
  EXPECT_EQ(rb.analytic_mttf, ri.analytic_mttf);
  EXPECT_NEAR(rb.analytic_survival,
              static_cast<double>(survival_probability(rb.target_nodes, 2, 0.04L)), 1e-12);
  // Every trial reports how many buses it lost.
  EXPECT_EQ(rb.bus_fault_count.count, rb.trials);
  EXPECT_GT(rb.bus_fault_count.mean, 0.0);
  // The clustered bus model has no closed form.
  ScenarioSpec clustered = spec;
  clustered.fault_models = {{FaultModelKind::BusClustered, 0.04, 1.0, 100.0, 1.0}};
  const ScenarioResult rc = run_campaign(clustered, {.threads = 1}).scenarios.front();
  EXPECT_TRUE(std::isnan(rc.analytic_survival));
  EXPECT_EQ(rc.bus_fault_count.count, rc.trials);
}

TEST(BusFaults, BusModelsDegenerateGracefullyOnPointToPointFamilies) {
  // On a point-to-point fabric the "bus of node v" is v's adjacency, so the
  // models still draw and the runner scores the plain monotone embedding.
  ScenarioSpec spec = bus_fault_spec();
  spec.trials = 200;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 3}};
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  ASSERT_EQ(result.scenarios.size(), 8u);
  for (const ScenarioResult& r : result.scenarios) {
    EXPECT_EQ(r.trials, 200u);
    EXPECT_EQ(r.bus_fault_count.count, 200u);
    EXPECT_GT(r.reconfig_success, 0u);
  }
  EXPECT_EQ(validate_campaign_report(campaign_report_json(result)), 8u);
}

TEST(BusFaults, ReportIsByteIdenticalAcrossThreadsResumeAndShards) {
  const ScenarioSpec spec = bus_fault_spec();
  const std::string serial = campaign_report_json(run_campaign(spec, {.threads = 1}));
  EXPECT_EQ(serial, campaign_report_json(run_campaign(spec, {.threads = 3})));
  // Crash after two blocks and resume, then two --cells slices: same bytes.
  expect_durable_drills(spec, serial, "bus");
  EXPECT_EQ(validate_campaign_report(serial), 4u);
}

// --- traffic metric ----------------------------------------------------------

/// Point-to-point cells with the traffic metric on, multi-block like
/// collective_spec() so skewed-workload determinism is exercised across
/// steals, checkpoints and shards.
ScenarioSpec traffic_campaign(const std::string& pattern) {
  ScenarioSpec spec;
  spec.name = "traffic";
  spec.seed = 23;
  spec.trials = 600;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {0, 2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = false;
  spec.metrics.mttf = false;
  spec.metrics.traffic = true;
  spec.metrics.traffic_spec.pattern = pattern;
  spec.metrics.traffic_spec.packets_per_node = 2;
  return spec;
}

TEST(Traffic, SpecParsesRoundTripsAndFingerprints) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "iid", "p": 0.05}],
    "metrics": ["traffic"],
    "traffic": {"pattern": "zipf", "theta": 1.2, "packets_per_node": 2}
  })");
  EXPECT_TRUE(spec.metrics.traffic);
  EXPECT_EQ(spec.metrics.traffic_spec.pattern, "zipf");
  EXPECT_EQ(spec.metrics.traffic_spec.theta, 1.2);
  EXPECT_EQ(spec.metrics.traffic_spec.packets_per_node, 2u);
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));

  // The workload shape is part of the spec identity.
  ScenarioSpec other = spec;
  other.metrics.traffic_spec.theta = 0.8;
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(other));

  // An unknown pattern is rejected up front, not at trial time.
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "iid", "p": 0.05}],
    "metrics": ["traffic"],
    "traffic": {"pattern": "fractal"}
  })"),
               std::runtime_error);

  // Specs without the metric keep their pre-traffic canonical form (and so
  // their fingerprints): the key only appears when the metric is on.
  EXPECT_EQ(scenario_spec_to_json(small_spec()).find("\"traffic\""), std::string::npos);
}

TEST(Traffic, StatsArePopulatedAndBounded) {
  ScenarioSpec spec = traffic_campaign("zipf");
  spec.trials = 200;
  spec.metrics.traffic_spec.theta = 1.1;
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  ASSERT_EQ(result.scenarios.size(), 4u);
  for (const ScenarioResult& r : result.scenarios) {
    // Every trial runs the workload — on the reconfigured machine after a
    // successful trial, on the degraded bare target otherwise.
    EXPECT_EQ(r.traffic_delivered.count, r.trials);
    EXPECT_GE(r.traffic_delivered.min, 0.0);
    EXPECT_LE(r.traffic_delivered.max, 1.0);
    EXPECT_GT(r.traffic_delivered.mean, 0.5) << r.label;
    // Latency is only defined on trials that delivered something.
    EXPECT_LE(r.traffic_latency.count, r.traffic_delivered.count);
    EXPECT_GT(r.traffic_latency.count, 0u);
    EXPECT_GE(r.traffic_latency.min, 0.0);
    EXPECT_GT(r.traffic_congestion.count, 0u);
    EXPECT_GE(r.traffic_congestion.min, 0.0);
    EXPECT_GT(r.traffic_congestion.max, 0.0) << r.label;
    EXPECT_LE(r.traffic_timed_out, r.trials);
  }
  EXPECT_EQ(validate_campaign_report(campaign_report_json(result)), 4u);
}

TEST(Traffic, ReportIsByteIdenticalAcrossThreadsResumeAndShards) {
  // hotspot_burst is the pattern that draws per-trial randomness (the hot
  // nodes) from the trial's own stream — the riskiest path for scheduling
  // determinism, so it gets the full drill.
  ScenarioSpec spec = traffic_campaign("hotspot_burst");
  spec.metrics.traffic_spec.hotspots = 2;
  spec.metrics.traffic_spec.fraction_hot = 0.5;
  spec.metrics.traffic_spec.burst_cycles = 4;
  const std::string serial = campaign_report_json(run_campaign(spec, {.threads = 1}));
  EXPECT_EQ(serial, campaign_report_json(run_campaign(spec, {.threads = 3})));

  expect_durable_drills(spec, serial, "traffic");
  EXPECT_EQ(validate_campaign_report(serial), 4u);
}

TEST(Traffic, ZipfAndTraceAreThreadCountInvariant) {
  ScenarioSpec zipf = traffic_campaign("zipf");
  zipf.trials = 200;
  EXPECT_EQ(campaign_report_json(run_campaign(zipf, {.threads = 1})),
            campaign_report_json(run_campaign(zipf, {.threads = 3})));

  // A trace brings its own packets; endpoints must be valid on the smallest
  // target in the grid (SE_3 has 8 nodes).
  ScenarioSpec trace = traffic_campaign("trace");
  trace.trials = 200;
  trace.metrics.traffic_spec.trace = "# three-packet replay\n0 0 7\n0 5 2\n1 3 0\n";
  const CampaignResult a = run_campaign(trace, {.threads = 1});
  EXPECT_EQ(campaign_report_json(a), campaign_report_json(run_campaign(trace, {.threads = 3})));
  for (const ScenarioResult& r : a.scenarios) {
    EXPECT_EQ(r.traffic_delivered.count, r.trials);
  }

  // A trace endpoint out of range for some cell's target fails fast at
  // campaign start, not mid-trial.
  ScenarioSpec bad = trace;
  bad.metrics.traffic_spec.trace = "0 0 12\n";  // valid on B_{2,4}, not on SE_3
  EXPECT_THROW(run_campaign(bad, {.threads = 1}), std::out_of_range);
}

TEST(Traffic, BusFamilySkipsTheMetricGracefully) {
  ScenarioSpec spec = traffic_campaign("zipf");
  spec.trials = 100;
  spec.topologies = {{TopologyFamily::Bus, 2, 3}};
  spec.spares = {1};
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  ASSERT_EQ(result.scenarios.size(), 1u);
  const ScenarioResult& r = result.scenarios.front();
  EXPECT_EQ(r.trials, 100u);
  EXPECT_EQ(r.traffic_delivered.count, 0u);
  EXPECT_EQ(r.traffic_latency.count, 0u);
  EXPECT_EQ(validate_campaign_report(campaign_report_json(result)), 1u);
}

TEST(Traffic, CsvAndMarkdownCarryTheTrafficColumns) {
  ScenarioSpec spec = traffic_campaign("zipf");
  spec.trials = 200;
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const std::string csv = campaign_report_csv(result);
  EXPECT_NE(csv.find("bus_fault_mean"), std::string::npos);
  EXPECT_NE(csv.find("traffic_delivered_mean"), std::string::npos);
  EXPECT_NE(csv.find("traffic_congestion_max"), std::string::npos);
  const std::string md = campaign_report_markdown(result);
  EXPECT_NE(md.find("delivered"), std::string::npos);
}

TEST(ScenarioSpec, FullExampleCoversEveryFamilyModelAndMetric) {
  const ScenarioSpec spec = parse_scenario_spec(full_example_spec_json());
  EXPECT_EQ(spec.name, "full-example");
  EXPECT_EQ(spec.topologies.size(), 5u);  // 2 de Bruijn + 2 SE + 1 bus
  EXPECT_EQ(spec.fault_models.size(), 7u);
  EXPECT_EQ(expand_grid(spec).size(), 70u);
  EXPECT_TRUE(spec.metrics.collective);
  EXPECT_TRUE(spec.metrics.traffic);
  EXPECT_EQ(spec.metrics.traffic_spec.pattern, "hotspot_burst");
  // Canonical form is a fixed point — what `ftdb_campaign validate-spec`
  // asserts for the CI round-trip of `example-spec --full`.
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));
  EXPECT_EQ(spec_fingerprint(spec), spec_fingerprint(parse_scenario_spec(canon)));
}

// --- presented-trial reuse ---------------------------------------------------

bool same_stats(const StreamingStats& a, const StreamingStats& b) {
  return a.count == b.count && a.mean == b.mean && a.m2 == b.m2 &&
         (a.count == 0 || (a.min == b.min && a.max == b.max));
}

/// Replays every trial of a one-cell, one-block campaign with traffic and
/// stretch on. For each trial whose reconfigured machine runs as the healthy
/// one, the healthy simulator's traffic stats and the stretch audit over its
/// router must equal run_packets and the stretch audit over the trial's own
/// machine's logical router. The cell's traffic and stretch columns, folded here from the
/// own-machine values, must equal what run_campaign reports.
void replay_presented_trials(TopologyFamily family, std::uint64_t stretch_pairs) {
  ScenarioSpec spec;
  spec.name = "reuse-replay";
  spec.seed = 17;
  spec.trials = kTrialBlock;
  spec.topologies = {{family, 2, 5}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.03, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = true;
  spec.metrics.stretch = true;
  spec.metrics.stretch_sample_pairs = stretch_pairs;
  spec.metrics.traffic = true;
  spec.metrics.traffic_spec.pattern = "zipf";
  spec.metrics.traffic_spec.theta = 1.0;
  spec.metrics.traffic_spec.packets_per_node = 4;
  const ScenarioCase cell = expand_grid(spec).at(0);

  const bool se = family == TopologyFamily::ShuffleExchange;
  const unsigned h = 5;
  const Graph target = se ? shuffle_exchange_graph(h) : debruijn_graph({.base = 2, .digits = h});
  const Graph fabric = se ? ft_shuffle_exchange_natural(h, 2).ft_graph
                          : ft_debruijn_graph({.base = 2, .digits = h, .spares = 2});
  const std::unique_ptr<FaultModel> model = make_fault_model(cell.fault_model);
  model->prepare(fabric, 2);
  const sim::Machine healthy = sim::Machine::direct(target);
  sim::PacketSimulator healthy_sim(healthy, target);
  const std::uint64_t n = target.num_nodes();
  const std::uint64_t packets = 4 * n;
  const std::uint64_t max_cycles = 4 * packets + 1024;

  ScenarioResult want;
  std::uint64_t presented = 0;
  std::uint64_t failed = 0;
  for (std::uint64_t t = 0; t < spec.trials; ++t) {
    TrialRng rng = TrialRng::for_trial(spec.seed, cell.index, t);
    const FaultDraw draw = model->draw(fabric, 2, rng);
    const bool success =
        draw.faults.count() <= 2 && monotone_embedding_survives(target, fabric, draw.faults);
    std::optional<sim::Machine> machine;
    std::vector<std::pair<NodeId, NodeId>> pairs;
    if (success) {
      machine.emplace(sim::Machine::reconfigured(fabric, draw.faults, n));
      // The runner's stream order: the stretch sample, then the traffic seed.
      for (std::uint64_t i = 0; i < stretch_pairs; ++i) {
        const NodeId s = static_cast<NodeId>(rng.next_u64() % n);
        const NodeId d = static_cast<NodeId>(rng.next_u64() % n);
        if (s != d) pairs.emplace_back(s, d);
      }
      const double own = sim::max_route_stretch_with_router(
          *machine, *sim::machine_logical_router(*machine, target),
          stretch_pairs == 0 ? nullptr : &pairs);
      want.route_stretch.add(own);
      if (sim::runs_as_target(*machine, machine->presents(target), target)) {
        ++presented;
        EXPECT_EQ(sim::max_route_stretch_with_router(*machine, healthy_sim.router(),
                                                     stretch_pairs == 0 ? nullptr : &pairs),
                  own)
            << "trial " << t;
      }
    } else {
      ++failed;
    }
    const std::vector<sim::Packet> traffic = sim::zipf_traffic(n, packets, 1.0, rng.next_u64());
    std::optional<sim::SimStats> stats;
    if (success) {
      stats = sim::run_packets(*machine, target, traffic, {.max_cycles = max_cycles});
      if (sim::runs_as_target(*machine, machine->presents(target), target)) {
        const sim::SimStats reused = healthy_sim.run(traffic, max_cycles);
        EXPECT_EQ(reused.injected, stats->injected) << "trial " << t;
        EXPECT_EQ(reused.delivered, stats->delivered) << "trial " << t;
        EXPECT_EQ(reused.undeliverable, stats->undeliverable) << "trial " << t;
        EXPECT_EQ(reused.timed_out, stats->timed_out) << "trial " << t;
        EXPECT_EQ(reused.cycles, stats->cycles) << "trial " << t;
        EXPECT_EQ(reused.total_latency, stats->total_latency) << "trial " << t;
        EXPECT_EQ(reused.max_latency, stats->max_latency) << "trial " << t;
        EXPECT_EQ(reused.total_hops, stats->total_hops) << "trial " << t;
        EXPECT_EQ(reused.max_queue_depth, stats->max_queue_depth) << "trial " << t;
      }
    } else {
      std::vector<NodeId> hit;
      for (const NodeId f : draw.faults.nodes()) {
        if (f < n) hit.push_back(f);
      }
      if (hit.size() < n) {
        const sim::Machine degraded =
            sim::Machine::direct_with_faults(target, FaultSet(n, std::move(hit)));
        stats = sim::run_packets(degraded, target, traffic,
                                 {.max_cycles = max_cycles});
      }
    }
    if (stats) {
      want.traffic_delivered.add(stats->delivered_fraction());
      if (stats->delivered > 0) want.traffic_latency.add(stats->average_latency());
      want.traffic_congestion.add(static_cast<double>(stats->max_queue_depth));
      want.traffic_timed_out += stats->timed_out;
    } else {
      want.traffic_delivered.add(0.0);
    }
  }
  // Both paths must have been exercised for the comparison to mean anything.
  EXPECT_GT(presented, spec.trials / 2);
  EXPECT_GT(failed, 0u);

  const ScenarioResult got = run_campaign(spec, {.threads = 2}).scenarios.at(0);
  EXPECT_TRUE(same_stats(got.route_stretch, want.route_stretch));
  EXPECT_TRUE(same_stats(got.traffic_delivered, want.traffic_delivered));
  EXPECT_TRUE(same_stats(got.traffic_latency, want.traffic_latency));
  EXPECT_TRUE(same_stats(got.traffic_congestion, want.traffic_congestion));
  EXPECT_EQ(got.traffic_timed_out, want.traffic_timed_out);
}

TEST(PresentedTrialReuse, DebruijnSampledStretchAndTraffic) {
  replay_presented_trials(TopologyFamily::DeBruijn, 48);
}

TEST(PresentedTrialReuse, DebruijnFullStretchAndTraffic) {
  replay_presented_trials(TopologyFamily::DeBruijn, 0);
}

TEST(PresentedTrialReuse, ShuffleExchangeSampledStretchAndTraffic) {
  replay_presented_trials(TopologyFamily::ShuffleExchange, 48);
}

TEST(PresentedTrialReuse, ShuffleExchangeFullStretchAndTraffic) {
  replay_presented_trials(TopologyFamily::ShuffleExchange, 0);
}

}  // namespace
}  // namespace ftdb::campaign
