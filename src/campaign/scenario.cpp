#include "campaign/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "analysis/bench_json.hpp"
#include "campaign/rng.hpp"
#include "sim/schedule.hpp"
#include "sim/traffic.hpp"

namespace ftdb::campaign {

using analysis::JsonValue;
using analysis::JsonWriter;

namespace {

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::runtime_error("campaign spec: " + what);
}

double number_field(const JsonValue& obj, const std::string& key, double fallback,
                    bool required = false) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) bad_spec("missing required field \"" + key + "\"");
    return fallback;
  }
  if (v->kind != JsonValue::Kind::Number) bad_spec("field \"" + key + "\" must be a number");
  return v->number;
}

std::uint64_t uint_field(const JsonValue& obj, const std::string& key, std::uint64_t fallback,
                         bool required = false) {
  const double d = number_field(obj, key, static_cast<double>(fallback), required);
  if (d < 0 || d != std::floor(d)) bad_spec("field \"" + key + "\" must be a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

/// A grid dimension given either as one number or as an array of numbers.
std::vector<std::uint64_t> uint_list_field(const JsonValue& obj, const std::string& key,
                                           std::vector<std::uint64_t> fallback,
                                           bool required = false) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) bad_spec("missing required field \"" + key + "\"");
    return fallback;
  }
  std::vector<std::uint64_t> out;
  const auto take = [&](const JsonValue& item) {
    if (item.kind != JsonValue::Kind::Number || item.number < 0 ||
        item.number != std::floor(item.number)) {
      bad_spec("field \"" + key + "\" must hold non-negative integers");
    }
    out.push_back(static_cast<std::uint64_t>(item.number));
  };
  if (v->kind == JsonValue::Kind::Array) {
    if (v->array.empty()) bad_spec("field \"" + key + "\" must not be empty");
    for (const JsonValue& item : v->array) take(item);
  } else {
    take(*v);
  }
  return out;
}

TopologyFamily parse_family(const std::string& s) {
  if (s == "debruijn") return TopologyFamily::DeBruijn;
  if (s == "shuffle_exchange") return TopologyFamily::ShuffleExchange;
  if (s == "bus") return TopologyFamily::Bus;
  bad_spec("unknown topology family \"" + s + "\" (expected debruijn, shuffle_exchange or bus)");
}

FaultModelKind parse_kind(const std::string& s) {
  if (s == "iid") return FaultModelKind::IidBernoulli;
  if (s == "clustered") return FaultModelKind::Clustered;
  if (s == "weibull") return FaultModelKind::Weibull;
  if (s == "adversarial") return FaultModelKind::Adversarial;
  if (s == "block") return FaultModelKind::Block;
  if (s == "bus_iid") return FaultModelKind::BusIid;
  if (s == "bus_clustered") return FaultModelKind::BusClustered;
  bad_spec("unknown fault model \"" + s +
           "\" (expected iid, clustered, weibull, adversarial, block, bus_iid or "
           "bus_clustered)");
}

void check_probability(double p, const std::string& context) {
  if (!(p > 0.0) || !(p < 1.0)) bad_spec(context + ": p must be in (0, 1)");
}

}  // namespace

const char* topology_family_name(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::DeBruijn: return "debruijn";
    case TopologyFamily::ShuffleExchange: return "shuffle_exchange";
    case TopologyFamily::Bus: return "bus";
  }
  return "?";
}

const char* fault_model_kind_name(FaultModelKind kind) {
  switch (kind) {
    case FaultModelKind::IidBernoulli: return "iid";
    case FaultModelKind::Clustered: return "clustered";
    case FaultModelKind::Weibull: return "weibull";
    case FaultModelKind::Adversarial: return "adversarial";
    case FaultModelKind::Block: return "block";
    case FaultModelKind::BusIid: return "bus_iid";
    case FaultModelKind::BusClustered: return "bus_clustered";
  }
  return "?";
}

std::uint64_t TopologySpec::target_nodes() const {
  const std::uint64_t m = family == TopologyFamily::DeBruijn ? base : 2;
  std::uint64_t n = 1;
  for (unsigned i = 0; i < digits; ++i) {
    if (n > (std::uint64_t{1} << 62) / m) bad_spec("topology size overflows");
    n *= m;
  }
  return n;
}

std::string TopologySpec::label() const {
  if (family == TopologyFamily::DeBruijn) {
    return "debruijn(m=" + std::to_string(base) + ",h=" + std::to_string(digits) + ")";
  }
  return std::string(topology_family_name(family)) + "(h=" + std::to_string(digits) + ")";
}

std::string FaultModelSpec::label() const {
  switch (kind) {
    case FaultModelKind::IidBernoulli: return "iid(p=" + fmt_g(p) + ")";
    case FaultModelKind::Clustered: return "clustered(p=" + fmt_g(p) + ")";
    case FaultModelKind::Weibull:
      return "weibull(shape=" + fmt_g(shape) + ",scale=" + fmt_g(scale) +
             ",horizon=" + fmt_g(horizon) + ")";
    case FaultModelKind::Adversarial: return "adversarial(p=" + fmt_g(p) + ")";
    case FaultModelKind::Block:
      return "block(p=" + fmt_g(p) + ",w=" + std::to_string(width) + ")";
    case FaultModelKind::BusIid: return "bus_iid(p=" + fmt_g(p) + ")";
    case FaultModelKind::BusClustered: return "bus_clustered(p=" + fmt_g(p) + ")";
  }
  return "?";
}

std::string ScenarioCase::label() const {
  return topology.label() + " k=" + std::to_string(spares) + " " + fault_model.label();
}

std::vector<ScenarioCase> expand_grid(const ScenarioSpec& spec) {
  std::vector<ScenarioCase> cells;
  cells.reserve(spec.topologies.size() * spec.spares.size() * spec.fault_models.size());
  for (const TopologySpec& topo : spec.topologies) {
    for (const unsigned k : spec.spares) {
      for (const FaultModelSpec& model : spec.fault_models) {
        ScenarioCase cell;
        cell.index = cells.size();
        cell.topology = topo;
        cell.spares = k;
        cell.fault_model = model;
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

double predicted_cell_cost(const ScenarioSpec& spec, const ScenarioCase& cell) {
  const double n = static_cast<double>(cell.topology.target_nodes());
  // Fabric construction + fault draw + embedding repair: a handful of passes
  // over the fabric, which is N plus spares wide.
  double per_trial = 4.0 * (n + static_cast<double>(cell.spares));
  if (spec.metrics.diameter) {
    // 64-way multi-source BFS sweeps: ~N^2/64 edge visits on degree-bounded
    // machines, plus a constant number of whole-machine passes.
    per_trial += n * n / 64.0 + 4.0 * n;
  }
  if (spec.metrics.stretch && cell.topology.family != TopologyFamily::Bus) {
    per_trial += spec.metrics.stretch_sample_pairs != 0
                     ? static_cast<double>(spec.metrics.stretch_sample_pairs) * n / 64.0
                     : n * n / 64.0 + n * n;  // full sweep also walks every route
  }
  if (spec.metrics.collective && cell.topology.family != TopologyFamily::Bus) {
    // Packet engine: rounds ~ log N, each moving O(N) packets a few hops.
    per_trial += 8.0 * n * (1.0 + std::log2(n > 1.0 ? n : 2.0));
  }
  if (spec.metrics.traffic && cell.topology.family != TopologyFamily::Bus) {
    // Packet engine again: packets_per_node x N packets, a few hops each.
    per_trial +=
        8.0 * static_cast<double>(spec.metrics.traffic_spec.packets_per_node) * n;
  }
  return per_trial * static_cast<double>(spec.trials);
}

ScenarioSpec parse_scenario_spec(const std::string& json_text) {
  const JsonValue doc = analysis::json_parse(json_text);
  if (doc.kind != JsonValue::Kind::Object) bad_spec("document must be a JSON object");

  ScenarioSpec spec;
  if (const JsonValue* name = doc.find("name")) {
    if (name->kind != JsonValue::Kind::String) bad_spec("\"name\" must be a string");
    spec.name = name->string;
  }
  spec.seed = uint_field(doc, "seed", spec.seed);
  spec.trials = uint_field(doc, "trials", spec.trials);
  if (spec.trials == 0) bad_spec("\"trials\" must be positive");

  const JsonValue* topologies = doc.find("topologies");
  if (topologies == nullptr || topologies->kind != JsonValue::Kind::Array ||
      topologies->array.empty()) {
    bad_spec("\"topologies\" must be a non-empty array");
  }
  for (const JsonValue& t : topologies->array) {
    if (t.kind != JsonValue::Kind::Object) bad_spec("topology entries must be objects");
    const JsonValue* family = t.find("family");
    if (family == nullptr || family->kind != JsonValue::Kind::String) {
      bad_spec("topology entries need a string \"family\"");
    }
    TopologySpec proto;
    proto.family = parse_family(family->string);
    if (proto.family != TopologyFamily::DeBruijn && t.find("base") != nullptr) {
      // Reject rather than silently collapse a base sweep to base 2.
      bad_spec("\"base\" only applies to the debruijn family");
    }
    // `base` and `digits` may each be a scalar or a list; the entry expands
    // over their cartesian product, which is how "grid over m, h" is spelled.
    const auto bases = proto.family == TopologyFamily::DeBruijn
                           ? uint_list_field(t, "base", {2})
                           : std::vector<std::uint64_t>{2};
    const auto digit_values = uint_list_field(t, "digits", {}, /*required=*/true);
    for (const std::uint64_t m : bases) {
      if (m < 2) bad_spec("topology base must be >= 2");
      for (const std::uint64_t h : digit_values) {
        if (h < 1 || h > 30) bad_spec("topology digits must be in [1, 30]");
        TopologySpec topo = proto;
        topo.base = m;
        topo.digits = static_cast<unsigned>(h);
        (void)topo.target_nodes();  // validates the size fits
        spec.topologies.push_back(topo);
      }
    }
  }

  for (const std::uint64_t k : uint_list_field(doc, "spares", {}, /*required=*/true)) {
    if (k > 4096) bad_spec("spare level too large (k <= 4096)");
    spec.spares.push_back(static_cast<unsigned>(k));
  }

  const JsonValue* models = doc.find("fault_models");
  if (models == nullptr || models->kind != JsonValue::Kind::Array || models->array.empty()) {
    bad_spec("\"fault_models\" must be a non-empty array");
  }
  for (const JsonValue& m : models->array) {
    if (m.kind != JsonValue::Kind::Object) bad_spec("fault model entries must be objects");
    const JsonValue* kind = m.find("kind");
    if (kind == nullptr || kind->kind != JsonValue::Kind::String) {
      bad_spec("fault model entries need a string \"kind\"");
    }
    FaultModelSpec model;
    model.kind = parse_kind(kind->string);
    model.p = number_field(m, "p", model.p);
    model.shape = number_field(m, "shape", model.shape);
    model.scale = number_field(m, "scale", model.scale);
    model.horizon = number_field(m, "horizon", model.horizon);
    model.width = uint_field(m, "width", model.width);
    if (model.kind != FaultModelKind::Weibull) check_probability(model.p, kind->string);
    if (model.kind == FaultModelKind::Weibull) {
      if (!(model.shape > 0.0)) bad_spec("weibull: shape must be positive");
      if (!(model.scale > 0.0)) bad_spec("weibull: scale must be positive");
      if (!(model.horizon > 0.0)) bad_spec("weibull: horizon must be positive");
    }
    if (model.kind == FaultModelKind::Block && model.width < 1) {
      bad_spec("block: width must be >= 1");
    }
    spec.fault_models.push_back(model);
  }

  if (const JsonValue* metrics = doc.find("metrics")) {
    if (metrics->kind != JsonValue::Kind::Array) bad_spec("\"metrics\" must be an array");
    spec.metrics.diameter = false;
    spec.metrics.stretch = false;
    spec.metrics.mttf = false;
    for (const JsonValue& m : metrics->array) {
      if (m.kind != JsonValue::Kind::String) bad_spec("metric names must be strings");
      if (m.string == "diameter") {
        spec.metrics.diameter = true;
      } else if (m.string == "stretch") {
        spec.metrics.stretch = true;
      } else if (m.string == "mttf") {
        spec.metrics.mttf = true;
      } else if (m.string == "collective") {
        spec.metrics.collective = true;
      } else if (m.string == "traffic") {
        spec.metrics.traffic = true;
      } else {
        bad_spec("unknown metric \"" + m.string +
                 "\" (expected diameter, stretch, mttf, collective or traffic)");
      }
    }
  }
  spec.metrics.stretch_sample_pairs = uint_field(doc, "stretch_sample_pairs", 0);
  if (const JsonValue* sched = doc.find("collective_schedule")) {
    if (sched->kind != JsonValue::Kind::String) {
      bad_spec("\"collective_schedule\" must be a string");
    }
    try {
      (void)sim::schedule_kind_from_name(sched->string);
    } catch (const std::invalid_argument& e) {
      bad_spec(e.what());
    }
    spec.metrics.collective_schedule = sched->string;
  }
  if (const JsonValue* t = doc.find("traffic")) {
    if (t->kind != JsonValue::Kind::Object) bad_spec("\"traffic\" must be an object");
    TrafficSpec& ts = spec.metrics.traffic_spec;
    if (const JsonValue* pat = t->find("pattern")) {
      if (pat->kind != JsonValue::Kind::String) bad_spec("traffic: \"pattern\" must be a string");
      ts.pattern = pat->string;
    }
    if (ts.pattern != "uniform" && ts.pattern != "zipf" && ts.pattern != "hotspot_burst" &&
        ts.pattern != "trace") {
      bad_spec("traffic: unknown pattern \"" + ts.pattern +
               "\" (expected uniform, zipf, hotspot_burst or trace)");
    }
    ts.theta = number_field(*t, "theta", ts.theta);
    if (!(ts.theta >= 0.0) || !std::isfinite(ts.theta)) {
      bad_spec("traffic: theta must be finite and >= 0");
    }
    ts.hotspots = uint_field(*t, "hotspots", ts.hotspots);
    if (ts.hotspots < 1 || ts.hotspots > 4096) bad_spec("traffic: hotspots must be in [1, 4096]");
    ts.fraction_hot = number_field(*t, "fraction_hot", ts.fraction_hot);
    if (!(ts.fraction_hot >= 0.0 && ts.fraction_hot <= 1.0)) {
      bad_spec("traffic: fraction_hot must be in [0, 1]");
    }
    ts.burst_cycles = uint_field(*t, "burst_cycles", ts.burst_cycles);
    if (ts.burst_cycles < 1) bad_spec("traffic: burst_cycles must be >= 1");
    ts.packets_per_node = uint_field(*t, "packets_per_node", ts.packets_per_node);
    if (ts.packets_per_node < 1 || ts.packets_per_node > 4096) {
      bad_spec("traffic: packets_per_node must be in [1, 4096]");
    }
    if (const JsonValue* trace = t->find("trace")) {
      if (trace->kind != JsonValue::Kind::String) bad_spec("traffic: \"trace\" must be a string");
      ts.trace = trace->string;
    }
    if (ts.pattern == "trace") {
      // Format- and range-check the trace now so a bad spec fails at parse
      // time, not mid-campaign inside a worker thread.
      std::vector<sim::Packet> parsed;
      try {
        parsed = sim::trace_traffic(ts.trace, 0);
      } catch (const std::exception& e) {
        bad_spec(std::string("traffic: ") + e.what());
      }
      if (parsed.empty()) bad_spec("traffic: trace pattern needs a non-empty \"trace\"");
      NodeId max_endpoint = 0;
      for (const sim::Packet& p : parsed) {
        max_endpoint = std::max({max_endpoint, p.src, p.dst});
      }
      for (const TopologySpec& topo : spec.topologies) {
        if (topo.family == TopologyFamily::Bus) continue;
        if (max_endpoint >= topo.target_nodes()) {
          bad_spec("traffic: trace endpoint " + std::to_string(max_endpoint) +
                   " out of range for topology " + topo.label());
        }
      }
    }
  }
  return spec;
}

std::string scenario_spec_to_json(const ScenarioSpec& spec) {
  JsonWriter w;
  write_scenario_spec(w, spec);
  return w.str();
}

void write_scenario_spec(JsonWriter& w, const ScenarioSpec& spec) {
  w.begin_object();
  w.key("name");
  w.value(spec.name);
  w.key("seed");
  w.value(spec.seed);
  w.key("trials");
  w.value(spec.trials);
  w.key("topologies");
  w.begin_array();
  for (const TopologySpec& t : spec.topologies) {
    w.begin_object();
    w.key("family");
    w.value(topology_family_name(t.family));
    if (t.family == TopologyFamily::DeBruijn) {
      w.key("base");
      w.value(t.base);
    }
    w.key("digits");
    w.value(static_cast<std::uint64_t>(t.digits));
    w.end_object();
  }
  w.end_array();
  w.key("spares");
  w.begin_array();
  for (const unsigned k : spec.spares) w.value(static_cast<std::uint64_t>(k));
  w.end_array();
  w.key("fault_models");
  w.begin_array();
  for (const FaultModelSpec& m : spec.fault_models) {
    w.begin_object();
    w.key("kind");
    w.value(fault_model_kind_name(m.kind));
    if (m.kind == FaultModelKind::Weibull) {
      w.key("shape");
      w.value(m.shape);
      w.key("scale");
      w.value(m.scale);
      w.key("horizon");
      w.value(m.horizon);
    } else {
      w.key("p");
      w.value(m.p);
      if (m.kind == FaultModelKind::Block) {
        w.key("width");
        w.value(m.width);
      }
    }
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  w.begin_array();
  if (spec.metrics.diameter) w.value("diameter");
  if (spec.metrics.stretch) w.value("stretch");
  if (spec.metrics.mttf) w.value("mttf");
  if (spec.metrics.collective) w.value("collective");
  if (spec.metrics.traffic) w.value("traffic");
  w.end_array();
  // Only a set knob enters the canonical form, so pre-knob specs keep their
  // fingerprints (and checkpoints) unchanged.
  if (spec.metrics.stretch_sample_pairs != 0) {
    w.key("stretch_sample_pairs");
    w.value(spec.metrics.stretch_sample_pairs);
  }
  if (spec.metrics.collective) {
    w.key("collective_schedule");
    w.value(spec.metrics.collective_schedule);
  }
  if (spec.metrics.traffic) {
    const TrafficSpec& ts = spec.metrics.traffic_spec;
    w.key("traffic");
    w.begin_object();
    w.key("pattern");
    w.value(ts.pattern);
    // Pattern-irrelevant knobs stay out of the canonical form so they cannot
    // silently change a fingerprint.
    if (ts.pattern == "zipf") {
      w.key("theta");
      w.value(ts.theta);
    }
    if (ts.pattern == "hotspot_burst") {
      w.key("hotspots");
      w.value(ts.hotspots);
      w.key("fraction_hot");
      w.value(ts.fraction_hot);
      w.key("burst_cycles");
      w.value(ts.burst_cycles);
    }
    w.key("packets_per_node");
    w.value(ts.packets_per_node);
    if (ts.pattern == "trace") {
      w.key("trace");
      w.value(ts.trace);
    }
    w.end_object();
  }
  w.end_object();
}

void validate_shard(const ShardSpec& shard, std::size_t num_cells) {
  if (shard.count < 1) bad_spec("cell slice count must be >= 1");
  if (shard.index >= shard.count) {
    bad_spec("cell slice " + std::to_string(shard.index) + " out of range for " +
             std::to_string(shard.count) + " slices");
  }
  if (num_cells > 0 && shard.count > num_cells) {
    bad_spec("more cell slices (" + std::to_string(shard.count) + ") than grid cells (" +
             std::to_string(num_cells) + ")");
  }
}

std::uint64_t spec_fingerprint(const ScenarioSpec& spec) {
  const std::string canon = scenario_spec_to_json(spec);
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : canon) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return splitmix64_mix(h);
}

std::string example_spec_json() {
  return R"({
  "name": "example",
  "seed": 2026,
  "trials": 200,
  "topologies": [
    {"family": "debruijn", "base": 2, "digits": 4},
    {"family": "shuffle_exchange", "digits": 4}
  ],
  "spares": [0, 2, 4],
  "fault_models": [
    {"kind": "iid", "p": 0.05},
    {"kind": "clustered", "p": 0.02},
    {"kind": "weibull", "shape": 1.5, "scale": 400.0, "horizon": 60.0},
    {"kind": "adversarial", "p": 0.05},
    {"kind": "block", "p": 0.05, "width": 3}
  ],
  "metrics": ["diameter", "mttf"]
}
)";
}

std::string full_example_spec_json() {
  // Every key the parser understands appears once. The "theta" and "trace"
  // knobs are inert under the hotspot_burst pattern (the canonical form drops
  // them), but they still exercise the parse path — which is the point: this
  // document is the executable companion of docs/SCENARIOS.md.
  return R"({
  "name": "full-example",
  "seed": 2026,
  "trials": 64,
  "topologies": [
    {"family": "debruijn", "base": [2, 3], "digits": 3},
    {"family": "shuffle_exchange", "digits": [3, 4]},
    {"family": "bus", "digits": 3}
  ],
  "spares": [0, 2],
  "fault_models": [
    {"kind": "iid", "p": 0.05},
    {"kind": "clustered", "p": 0.02},
    {"kind": "weibull", "shape": 1.5, "scale": 400.0, "horizon": 60.0},
    {"kind": "adversarial", "p": 0.05},
    {"kind": "block", "p": 0.05, "width": 3},
    {"kind": "bus_iid", "p": 0.04},
    {"kind": "bus_clustered", "p": 0.02}
  ],
  "metrics": ["diameter", "stretch", "mttf", "collective", "traffic"],
  "stretch_sample_pairs": 8,
  "collective_schedule": "all_to_all_bruck",
  "traffic": {
    "pattern": "hotspot_burst",
    "theta": 0.9,
    "hotspots": 2,
    "fraction_hot": 0.5,
    "burst_cycles": 4,
    "packets_per_node": 2,
    "trace": "# replayed only under the trace pattern\n0 0 1\n1 2 3\n"
  }
}
)";
}

}  // namespace ftdb::campaign
