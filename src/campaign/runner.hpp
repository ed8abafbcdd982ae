// The campaign execution engine.
//
// Every (scenario, 256-trial block) pair of the whole grid is one work unit.
// All units run on one block pool (run_block_pool): N threads take units
// from the front of one queue through an atomic cursor, so cells run in
// grid order, block by block. Every trial's randomness is counter-based —
// TrialRng::for_trial(seed, scenario, trial) — and per-block partial
// statistics are merged *in block order* per cell (an out-of-order block
// parks in a pending map until its predecessors land), so the result is
// byte-identical for any thread count. Statistics stream through Welford
// accumulators (no per-trial storage), success rates carry Wilson score
// intervals, and fault-count survival curves are recorded per scenario.
//
// run_campaign is in-memory. Durable, resumable and distributed runs go
// through the elastic worker (campaign/elastic/), which runs its leased
// cells' blocks on the same pool and appends each block to a block log.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bench_json.hpp"
#include "campaign/scenario.hpp"

namespace ftdb::campaign {

/// Trials per work unit. Fixed — the block partition is part of the
/// deterministic reduction order, so it must not depend on the thread count,
/// the cell split across workers, or the schedule.
inline constexpr std::uint64_t kTrialBlock = 256;

/// Blocks a cell of `trials` trials decomposes into (the last may be short).
inline constexpr std::uint64_t num_trial_blocks(std::uint64_t trials) {
  return (trials + kTrialBlock - 1) / kTrialBlock;
}

/// Trials covered by blocks [0, blocks) of a `trials`-trial cell.
inline constexpr std::uint64_t trials_in_prefix(std::uint64_t trials, std::uint64_t blocks) {
  const std::uint64_t t = blocks * kTrialBlock;
  return t < trials ? t : trials;
}

/// Trials inside block `block` of a `trials`-trial cell (the last block may
/// be short).
inline constexpr std::uint64_t trials_in_block(std::uint64_t trials, std::uint64_t block) {
  const std::uint64_t lo = block * kTrialBlock;
  const std::uint64_t hi = lo + kTrialBlock < trials ? lo + kTrialBlock : trials;
  return hi - lo;
}

/// Welford/Chan streaming moments with min/max. Deterministic under the
/// runner's fixed block partition + in-order merge.
struct StreamingStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void add(double x);
  void merge(const StreamingStats& other);
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
};

/// Wilson score interval for a binomial proportion (default z: 95%).
struct WilsonInterval {
  double lo = 0.0;
  double hi = 1.0;
};
WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z = 1.959963984540054);

/// One point of a scenario's empirical survival curve: of the trials that
/// drew exactly `faults` faults, how many reconfigured successfully.
struct SurvivalPoint {
  std::uint64_t faults = 0;
  std::uint64_t trials = 0;
  std::uint64_t survived = 0;
};

/// One point of the collective slowdown curve: over the trials that drew
/// exactly `faults` faults, the summed completion-time slowdown of the
/// collective schedule (relative to the healthy baseline) across the trials
/// where it completed, plus how many trials could not complete it at all.
/// The sum (not the mean) is stored so block partials merge exactly.
struct SlowdownPoint {
  std::uint64_t faults = 0;
  std::uint64_t trials = 0;        ///< trials at this fault count that ran the collective
  std::uint64_t unreachable = 0;   ///< of those, runs with undeliverable/timed-out sends
  double slowdown_sum = 0.0;       ///< sum over the (trials - unreachable) completed runs

  double mean_slowdown() const {
    const std::uint64_t done = trials - unreachable;
    return done == 0 ? 0.0 : slowdown_sum / static_cast<double>(done);
  }
};

/// Everything measured for one grid cell.
struct ScenarioResult {
  std::size_t scenario_index = 0;
  std::string label;
  std::uint64_t target_nodes = 0;   ///< N
  std::uint64_t fabric_nodes = 0;   ///< N + k (bus machine: node count of the fabric)
  std::uint32_t target_diameter = 0;

  std::uint64_t trials = 0;
  std::uint64_t reconfig_success = 0;  ///< monotone embedding survived the draw
  std::uint64_t over_budget = 0;       ///< trials that drew more than k faults
  StreamingStats fault_count;          ///< faults per trial

  // diameter metric --------------------------------------------------------
  /// Diameter of the live logical graph on successful trials — the paper
  /// says this must equal target_diameter, and here it is measured, not
  /// assumed: every target edge is checked to be a live logical link
  /// (sim::Machine::presents), which makes the live graph the target itself;
  /// only when an edge is missing is the live graph rebuilt and BFS-swept.
  StreamingStats reconfigured_diameter;
  /// Diameter of the survivor-induced fabric subgraph on failed trials
  /// (finite values only)...
  StreamingStats degraded_diameter;
  /// ...and how many failed trials left the survivors disconnected.
  std::uint64_t degraded_disconnected = 0;

  // stretch metric (point-to-point families: de Bruijn + shuffle-exchange) --
  StreamingStats route_stretch;

  // mttf metric -------------------------------------------------------------
  /// Time of the (k+1)-st failure per trial (finite draws only).
  StreamingStats mttf;
  std::uint64_t mttf_censored = 0;  ///< trials whose model never exhausts the spares

  // collective metric (point-to-point families only) -----------------------
  /// Rounds of the schedule on the full target (set at cell finalization).
  std::uint64_t collective_rounds = 0;
  /// Completion cycles of the schedule on the healthy machine — the
  /// denominator of every per-trial slowdown (set at cell finalization).
  std::uint64_t collective_baseline_cycles = 0;
  /// Per-trial completion-time slowdown of the collective (trials whose
  /// collective completed). Successful trials re-run the full-N schedule on
  /// the reconfigured machine against the cell baseline — dilation-1 lands at
  /// exactly 1.0. Failed trials run the survivors' schedule on the degraded
  /// target against the same schedule on the *healthy* target, so the ratio
  /// measures pure rerouting/congestion cost, not the smaller job.
  StreamingStats collective_slowdown;
  /// Per-trial total hop-cycles and max per-link congestion of the run.
  StreamingStats collective_hop_cycles;
  StreamingStats collective_congestion;
  /// Trials whose machine could not complete the collective (survivors
  /// disconnected or all participants dead).
  std::uint64_t collective_unreachable = 0;

  // bus-fault models (bus_iid / bus_clustered) ------------------------------
  /// Buses drawn faulty per trial. Only populated for bus-fault-model cells;
  /// on bus-family cells these draws are resolved onto the realized graph
  /// through ft::resolve_bus_faults.
  StreamingStats bus_fault_count;

  // traffic metric (point-to-point families only) ---------------------------
  /// Fraction of injected packets delivered per trial (successful trials run
  /// on the reconfigured machine, failed ones on the degraded bare target).
  StreamingStats traffic_delivered;
  /// Mean in-network latency of the delivered packets, per trial.
  StreamingStats traffic_latency;
  /// Peak queue depth across nodes, per trial — the congestion the skewed
  /// destination distributions exist to create.
  StreamingStats traffic_congestion;
  /// Total packets that timed out in flight across all trials.
  std::uint64_t traffic_timed_out = 0;

  /// Empirical survival curve by drawn fault count (sorted by faults).
  std::vector<SurvivalPoint> survival_curve;
  /// Collective slowdown by drawn fault count (sorted by faults; empty unless
  /// the collective metric ran).
  std::vector<SlowdownPoint> slowdown_curve;

  // analytic companions (iid model only; NaN otherwise) ---------------------
  double analytic_survival = std::numeric_limits<double>::quiet_NaN();
  double analytic_mttf = std::numeric_limits<double>::quiet_NaN();

  double success_rate() const;
  WilsonInterval success_ci(double z = 1.959963984540054) const;

  /// Merges a same-scenario partial (used block-by-block by the runner).
  void merge(const ScenarioResult& other);
};

struct CampaignOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  unsigned threads = 0;
  /// Optional sink for one progress line per completed scenario.
  std::ostream* progress = nullptr;
};

struct CampaignResult {
  ScenarioSpec spec;
  std::vector<ScenarioResult> scenarios;  ///< in grid order
};

/// Runs the whole campaign in memory. Throws std::runtime_error on unusable
/// specs.
CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options = {});

/// One unit of trial work: block `block` of cell `cell` (a grid index).
struct BlockUnit {
  std::size_t cell = 0;
  std::uint64_t block = 0;
};

/// Appends more units when the pool's queue has run dry; appending none
/// drains the pool.
using BlockRefill = std::function<void(std::vector<BlockUnit>& more)>;

/// The one thread pool that runs trial blocks; run_campaign and the elastic
/// worker both use it. `threads` threads (0 = hardware) take units from the
/// front of the queue through one atomic cursor and call `run` on each. When
/// the queue runs dry, one thread at a time calls `refill` (if given), which
/// may append units; the queue never holds more than `capacity` units in
/// total. The first exception thrown by `run` or `refill` stops the pool; it
/// is rethrown once every thread has joined.
void run_block_pool(unsigned threads, std::vector<BlockUnit> units, std::size_t capacity,
                    const std::function<void(const BlockUnit&)>& run,
                    const BlockRefill& refill = {});

/// Executes one grid cell's trial blocks outside run_campaign — the unit the
/// elastic campaign service (campaign/elastic/) leases and runs. The
/// scenario context (graphs, fault model, collective baseline) is built once
/// in the constructor; run_block only reads it, so one CellRunner can serve
/// many threads concurrently. Blocks produced here are bit-identical to the
/// ones run_campaign folds, because every trial's randomness is
/// counter-based.
class CellRunner {
 public:
  CellRunner(const ScenarioSpec& spec, const ScenarioCase& cell);
  ~CellRunner();
  CellRunner(CellRunner&&) noexcept;
  CellRunner& operator=(CellRunner&&) noexcept;

  std::uint64_t num_blocks() const;

  /// Runs block `block` (kTrialBlock trials; the last block may be short) and
  /// returns its partial accumulator — exactly what run_campaign would merge.
  ScenarioResult run_block(std::uint64_t block) const;

  /// Fills the cell-level metadata and analytic companions on a fully-merged
  /// accumulator (the step that finalizes a completed cell for reporting).
  void finalize(ScenarioResult& r) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --- result serialization and the compaction snapshot ----------------------

/// Writes one ScenarioResult as a JSON object (all raw accumulator fields;
/// round-trips exactly through parse_scenario_result — the %.17g doubles the
/// writer emits reparse to the same bits).
void write_scenario_result(analysis::JsonWriter& w, const ScenarioResult& r);
ScenarioResult parse_scenario_result(const analysis::JsonValue& obj);

/// One cell's durable progress: blocks [0, prefix_blocks) merged into
/// `prefix` (finalized — labels and analytic columns filled — exactly when
/// the cell is complete), plus completed blocks past the prefix that were
/// waiting on a predecessor.
struct CellProgress {
  std::size_t scenario_index = 0;
  std::uint64_t prefix_blocks = 0;
  ScenarioResult prefix;
  std::vector<std::pair<std::uint64_t, ScenarioResult>> extra;  ///< sorted by block
};

/// "ftdb-campaign-checkpoint-v2": the elastic compaction snapshot
/// (compacted.ckpt). The document always carries the whole-campaign "shard"
/// object {0, 1}; parse_checkpoint refuses any other.
struct Checkpoint {
  std::uint64_t fingerprint = 0;        ///< spec_fingerprint of the producing spec
  std::vector<CellProgress> cells;      ///< sorted by scenario_index
};

std::string checkpoint_to_json(const ScenarioSpec& spec, const Checkpoint& ckpt);

/// Parses a checkpoint document; throws std::runtime_error when malformed,
/// when it is a partial-shard checkpoint, or when the trial-block size it was
/// produced with differs from kTrialBlock.
Checkpoint parse_checkpoint(const std::string& json_text);

}  // namespace ftdb::campaign
