// Declarative campaign specifications.
//
// A campaign sweeps a grid of scenarios: topology family instances (de
// Bruijn B_{m,h}, shuffle-exchange SE_h, the Section V bus machine) crossed
// with spare budgets k and fault models, each cell evaluated over a fixed
// number of Monte Carlo trials. The spec is plain JSON (parsed with the
// in-tree bench_json parser) so sweeps are versionable artifacts, and the
// expansion into concrete scenario cells is deterministic: scenario index in
// the expanded list is part of every trial's RNG derivation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/bench_json.hpp"

namespace ftdb::campaign {

enum class TopologyFamily { DeBruijn, ShuffleExchange, Bus };

const char* topology_family_name(TopologyFamily family);

/// One concrete topology instance. `base` is only meaningful for the de
/// Bruijn family (the bus machine and SE_h are base-2 constructions).
struct TopologySpec {
  TopologyFamily family = TopologyFamily::DeBruijn;
  std::uint64_t base = 2;  // m
  unsigned digits = 3;     // h

  /// Target size N = m^h (respectively 2^h).
  std::uint64_t target_nodes() const;
  std::string label() const;
};

enum class FaultModelKind {
  IidBernoulli,
  Clustered,
  Weibull,
  Adversarial,
  Block,
  BusIid,
  BusClustered,
};

const char* fault_model_kind_name(FaultModelKind kind);

/// Parameters for one fault process (see fault_models.hpp for semantics).
struct FaultModelSpec {
  FaultModelKind kind = FaultModelKind::IidBernoulli;
  double p = 0.01;        // iid / clustered seed / adversarial budget / block onset probability
  double shape = 1.0;     // Weibull shape (>= ~0.1)
  double scale = 100.0;   // Weibull characteristic life (time steps)
  double horizon = 1.0;   // Weibull observation window: faults = {T_v <= horizon}
  std::uint64_t width = 4;  // block model: maximum block width (>= 1)
  std::string label() const;
};

/// Destination-skewed packet workload for the `traffic` metric. Which fields
/// are meaningful depends on `pattern`:
///   "uniform"       — no extra fields;
///   "zipf"          — `theta` (destination rank r drawn ∝ 1/(r+1)^theta);
///   "hotspot_burst" — `hotspots` hot nodes drawn per trial, taking turns
///                     being hot every `burst_cycles` cycles, each packet
///                     targeting the active one with probability
///                     `fraction_hot`;
///   "trace"         — `trace` holds inline "inject_cycle src dst" lines
///                     (sim::trace_traffic format) replayed verbatim.
/// Packet count per trial is `packets_per_node` x target nodes (traces bring
/// their own). Random draws are counter-based off the trial's own RNG stream,
/// so reports stay byte-identical across threads, cell splits and resume.
struct TrafficSpec {
  std::string pattern = "uniform";
  double theta = 1.0;
  std::uint64_t hotspots = 1;
  double fraction_hot = 0.5;
  std::uint64_t burst_cycles = 8;
  std::uint64_t packets_per_node = 4;
  std::string trace;
};

/// Which per-trial metrics to evaluate beyond reconfiguration success (which
/// is always measured). The heavier the metric, the more it costs per trial.
struct MetricSet {
  bool diameter = true;  ///< diameter of the post-fault (reconfigured or degraded) machine
  bool stretch = false;  ///< max logical-route stretch (point-to-point families)
  bool mttf = true;      ///< time of the (k+1)-st failure under the model's clock
  /// When nonzero, the stretch metric is evaluated on this many counter-based
  /// random (src, dst) pairs per trial instead of all N^2 — what keeps
  /// stretch affordable on big-N sweeps. Reports stay byte-identical across
  /// thread counts and checkpoint/resume because the pairs come from the
  /// trial's own RNG stream.
  std::uint64_t stretch_sample_pairs = 0;
  /// Execute a collective schedule (sim/schedule.hpp) through the packet
  /// engine every trial: on the reconfigured machine when the embedding
  /// survived (one that presents the target edge for edge reuses the healthy
  /// run, see sim::execute_schedule_or_reuse), on the degraded bare target
  /// otherwise, against a healthy baseline measured once per cell. Surfaces
  /// rounds, hop-cycles, link congestion and the completion-time
  /// slowdown-vs-fault-count curve.
  /// Point-to-point families only (skipped for the bus machine).
  bool collective = false;
  /// Which schedule the collective metric runs (a schedule_kind_name).
  std::string collective_schedule = "all_to_all_bruck";
  /// Run a packet workload (see TrafficSpec) through the engine every trial —
  /// on the reconfigured machine when the embedding survived, on the degraded
  /// bare target otherwise — surfacing delivered fraction, latency and queue
  /// congestion. Point-to-point families only (skipped for the bus machine).
  bool traffic = false;
  /// Workload shape for the traffic metric (only enters the canonical spec
  /// JSON when `traffic` is enabled).
  TrafficSpec traffic_spec;
};

/// The full campaign: the cartesian grid topologies x spares x fault_models,
/// `trials` Monte Carlo trials per cell.
struct ScenarioSpec {
  std::string name = "campaign";
  std::uint64_t seed = 2026;
  std::uint64_t trials = 1000;
  std::vector<TopologySpec> topologies;
  std::vector<unsigned> spares;
  std::vector<FaultModelSpec> fault_models;
  MetricSet metrics;
};

/// One expanded grid cell. `index` is the cell's position in expansion order
/// (topology-major, then spares, then fault model) — the scenario counter in
/// the per-trial RNG derivation, so reordering the spec reshuffles results by
/// design and editing one dimension leaves other cells' trials unchanged.
struct ScenarioCase {
  std::size_t index = 0;
  TopologySpec topology;
  unsigned spares = 0;
  FaultModelSpec fault_model;

  std::string label() const;
};

std::vector<ScenarioCase> expand_grid(const ScenarioSpec& spec);

/// Rough per-trial work estimate for one grid cell, in arbitrary but
/// mutually comparable units. Used only to *order* work (elastic workers
/// lease expensive cells first so the campaign's tail is short), so the
/// model just has to be monotone in the dominant terms: every enabled
/// metric contributes its asymptotic cost at the cell's target size N.
/// Deliberately cheap — no graphs are built.
double predicted_cell_cost(const ScenarioSpec& spec, const ScenarioCase& cell);

/// A cell filter for one machine's slice of a campaign (the elastic worker's
/// `--cells I/N`): slice `index` of `count` owns every grid cell whose
/// expansion index is congruent to `index` mod `count`. The round-robin
/// partition is deterministic and spreads the expensive cells (which cluster
/// at neighboring grid positions) across machines. count <= 1 means the
/// whole campaign.
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  bool owns(std::size_t cell_index) const {
    return count <= 1 || cell_index % count == index;
  }
};

/// Throws std::runtime_error unless index < count and count >= 1.
void validate_shard(const ShardSpec& shard, std::size_t num_cells);


/// Parses a campaign spec document; throws std::runtime_error with a
/// field-level message on malformed or out-of-range input.
ScenarioSpec parse_scenario_spec(const std::string& json_text);

/// Canonical JSON form of the spec (stable field order; reparsing yields an
/// equivalent spec). Embedded in reports and checkpoints.
std::string scenario_spec_to_json(const ScenarioSpec& spec);

/// Same, but nested into an in-flight writer (report.cpp embeds the spec in
/// the campaign report document).
void write_scenario_spec(analysis::JsonWriter& w, const ScenarioSpec& spec);

/// FNV-1a hash of the canonical JSON — the compatibility stamp checked when
/// resuming from a checkpoint.
std::uint64_t spec_fingerprint(const ScenarioSpec& spec);

/// A small ready-to-run example spec (also used by the CI smoke job): two
/// topology families x three spare levels x four fault models.
std::string example_spec_json();

/// A kitchen-sink spec exercising every key the parser accepts: all three
/// topology families (with list-valued base/digits), all seven fault models,
/// every metric, and every traffic knob. `ftdb_campaign example-spec --full`
/// emits it and the docs-check CI job round-trips it through `validate-spec`,
/// so a key added to the parser without documentation coverage fails CI.
std::string full_example_spec_json();

}  // namespace ftdb::campaign
