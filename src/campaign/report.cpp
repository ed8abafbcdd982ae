#include "campaign/report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "analysis/bench_json.hpp"
#include "analysis/table.hpp"

namespace ftdb::campaign {

using analysis::JsonValue;
using analysis::JsonWriter;

namespace {

std::string fmt(double v, int precision = 4) {
  if (!std::isfinite(v)) return "-";
  return analysis::fmt_double(v, precision);
}

/// Mean of a streaming accumulator, or "-" when it saw no samples.
std::string fmt_mean(const StreamingStats& s, int precision = 2) {
  return s.count == 0 ? "-" : analysis::fmt_double(s.mean, precision);
}

/// RFC-4180 quoting: wrap when the cell holds a comma/quote/newline.
std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_num(double v) {
  if (!std::isfinite(v)) return "";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string campaign_report_json(const CampaignResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("ftdb-campaign-v1");
  w.key("spec");
  write_scenario_spec(w, result.spec);
  // Run telemetry (thread count, resumed blocks) stays out of the document on
  // purpose: the report must be byte-identical across thread counts and
  // crash/resume boundaries.
  w.key("scenarios");
  w.begin_array();
  for (const ScenarioResult& r : result.scenarios) write_scenario_result(w, r);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string campaign_report_csv(const CampaignResult& result) {
  std::ostringstream out;
  out << "scenario_index,label,target_nodes,fabric_nodes,target_diameter,trials,"
         "reconfig_success,success_rate,wilson95_lo,wilson95_hi,analytic_survival,"
         "over_budget,mean_faults,reconfigured_diameter_mean,degraded_diameter_mean,"
         "degraded_disconnected,route_stretch_max,mttf_mean,analytic_mttf,mttf_censored,"
         "collective_rounds,collective_baseline_cycles,collective_slowdown_mean,"
         "collective_unreachable,collective_hop_cycles_mean,collective_congestion_max,"
         "bus_fault_mean,traffic_delivered_mean,traffic_latency_mean,"
         "traffic_congestion_max,traffic_timed_out,slowdown_by_faults\n";
  for (const ScenarioResult& r : result.scenarios) {
    const WilsonInterval ci = r.success_ci();
    // The slowdown-vs-fault-count curve as one cell: "f:mean" pairs joined
    // with ';' ("f:-" when every run at that fault count was unreachable).
    std::string curve;
    for (const SlowdownPoint& p : r.slowdown_curve) {
      if (!curve.empty()) curve += ';';
      curve += std::to_string(p.faults) + ':';
      curve += p.trials > p.unreachable ? csv_num(p.mean_slowdown()) : "-";
    }
    out << r.scenario_index << ',' << csv_quote(r.label) << ',' << r.target_nodes << ','
        << r.fabric_nodes << ',' << r.target_diameter << ',' << r.trials << ','
        << r.reconfig_success << ',' << csv_num(r.success_rate()) << ',' << csv_num(ci.lo)
        << ',' << csv_num(ci.hi) << ',' << csv_num(r.analytic_survival) << ','
        << r.over_budget << ',' << csv_num(r.fault_count.mean) << ','
        << (r.reconfigured_diameter.count ? csv_num(r.reconfigured_diameter.mean) : "") << ','
        << (r.degraded_diameter.count ? csv_num(r.degraded_diameter.mean) : "") << ','
        << r.degraded_disconnected << ','
        << (r.route_stretch.count ? csv_num(r.route_stretch.max) : "") << ','
        << (r.mttf.count ? csv_num(r.mttf.mean) : "") << ',' << csv_num(r.analytic_mttf)
        << ',' << r.mttf_censored << ',' << r.collective_rounds << ','
        << r.collective_baseline_cycles << ','
        << (r.collective_slowdown.count ? csv_num(r.collective_slowdown.mean) : "") << ','
        << r.collective_unreachable << ','
        << (r.collective_hop_cycles.count ? csv_num(r.collective_hop_cycles.mean) : "") << ','
        << (r.collective_congestion.count ? csv_num(r.collective_congestion.max) : "") << ','
        << (r.bus_fault_count.count ? csv_num(r.bus_fault_count.mean) : "") << ','
        << (r.traffic_delivered.count ? csv_num(r.traffic_delivered.mean) : "") << ','
        << (r.traffic_latency.count ? csv_num(r.traffic_latency.mean) : "") << ','
        << (r.traffic_congestion.count ? csv_num(r.traffic_congestion.max) : "") << ','
        << r.traffic_timed_out << ',' << csv_quote(curve) << '\n';
  }
  return out.str();
}

std::string campaign_report_markdown(const CampaignResult& result) {
  std::ostringstream out;
  out << "# Campaign: " << result.spec.name << "\n\n"
      << "seed " << result.spec.seed << ", " << result.spec.trials
      << " trials per scenario, " << result.scenarios.size() << " scenarios\n\n";
  analysis::Table t({"scenario", "trials", "ok", "rate", "wilson 95%", "analytic",
                     "E[faults]", "diam", "mttf", "analytic mttf", "slowdown", "delivered"});
  for (const ScenarioResult& r : result.scenarios) {
    const WilsonInterval ci = r.success_ci();
    // Appended, not `"[" + fmt(...)`: gcc 12 inlines operator+(const char*,
    // string&&) into a memcpy it then misreports under -Wrestrict.
    std::string wilson = "[";
    wilson.append(fmt(ci.lo)).append(", ").append(fmt(ci.hi)).append("]");
    t.add_row({r.label, analysis::fmt_u64(r.trials), analysis::fmt_u64(r.reconfig_success),
               fmt(r.success_rate()), wilson,
               fmt(r.analytic_survival), fmt_mean(r.fault_count),
               fmt_mean(r.reconfigured_diameter), fmt_mean(r.mttf, 1),
               fmt(r.analytic_mttf, 1), fmt_mean(r.collective_slowdown, 4),
               fmt_mean(r.traffic_delivered, 4)});
  }
  out << t.render();
  // Survival curves: only scenarios where the curve has more than one point
  // say anything beyond the headline rate.
  out << "\n## Survival by drawn fault count\n\n";
  for (const ScenarioResult& r : result.scenarios) {
    if (r.survival_curve.size() < 2) continue;
    out << "- " << r.label << ":";
    for (const SurvivalPoint& p : r.survival_curve) {
      out << " " << p.faults << ":" << p.survived << "/" << p.trials;
    }
    out << "\n";
  }
  // Collective slowdown curves: the completion-time cost of the drawn fault
  // count, relative to the healthy baseline (1.0 = the dilation-1 claim).
  bool any_slowdown = false;
  for (const ScenarioResult& r : result.scenarios) any_slowdown |= !r.slowdown_curve.empty();
  if (any_slowdown) {
    out << "\n## Collective slowdown by drawn fault count\n\n";
    for (const ScenarioResult& r : result.scenarios) {
      if (r.slowdown_curve.empty()) continue;
      out << "- " << r.label << " (" << r.collective_rounds << " rounds, baseline "
          << r.collective_baseline_cycles << " cycles):";
      for (const SlowdownPoint& p : r.slowdown_curve) {
        out << " " << p.faults << ":";
        if (p.trials > p.unreachable) {
          out << fmt(p.mean_slowdown(), 3);
        } else {
          out << "-";
        }
        if (p.unreachable > 0) out << "(" << p.unreachable << " unreachable)";
      }
      out << "\n";
    }
  }
  return out.str();
}

std::size_t validate_campaign_report(const std::string& json_text) {
  const JsonValue doc = analysis::json_parse(json_text);
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "ftdb-campaign-v1") {
    throw std::runtime_error("not an ftdb-campaign-v1 document");
  }
  const JsonValue& spec = doc.at("spec");
  if (spec.kind != JsonValue::Kind::Object) throw std::runtime_error("spec must be an object");
  const JsonValue& scenarios = doc.at("scenarios");
  if (scenarios.kind != JsonValue::Kind::Array || scenarios.array.empty()) {
    throw std::runtime_error("scenarios must be a non-empty array");
  }
  // Partial documents (elastic `merge --partial`) legitimately carry cells no
  // worker has touched yet; everything else about them must still validate.
  const JsonValue* partial = doc.find("partial");
  const bool is_partial = partial != nullptr && partial->kind == JsonValue::Kind::Bool &&
                          partial->boolean;
  for (const JsonValue& s : scenarios.array) {
    // parse_scenario_result throws on any missing/mistyped field.
    const ScenarioResult r = parse_scenario_result(s);
    if (r.trials == 0 && !is_partial) throw std::runtime_error("scenario with zero trials");
    if (r.reconfig_success > r.trials) {
      throw std::runtime_error("scenario with more successes than trials");
    }
    std::uint64_t curve_trials = 0;
    for (const SurvivalPoint& p : r.survival_curve) curve_trials += p.trials;
    if (curve_trials != r.trials) {
      throw std::runtime_error("survival curve does not partition the trials");
    }
    std::uint64_t coll_trials = 0;
    std::uint64_t coll_unreachable = 0;
    for (const SlowdownPoint& p : r.slowdown_curve) {
      if (p.unreachable > p.trials) {
        throw std::runtime_error("slowdown curve point with more unreachable runs than trials");
      }
      coll_trials += p.trials;
      coll_unreachable += p.unreachable;
    }
    if (coll_trials > r.trials) {
      throw std::runtime_error("slowdown curve covers more trials than the scenario ran");
    }
    if (coll_unreachable != r.collective_unreachable) {
      throw std::runtime_error("slowdown curve unreachable count does not match the total");
    }
    if (r.bus_fault_count.count > r.trials) {
      throw std::runtime_error("bus fault stats cover more trials than the scenario ran");
    }
    if (r.traffic_delivered.count > r.trials) {
      throw std::runtime_error("traffic stats cover more trials than the scenario ran");
    }
    if (r.traffic_latency.count > r.traffic_delivered.count) {
      throw std::runtime_error("traffic latency samples exceed the trials that ran traffic");
    }
  }
  return scenarios.array.size();
}

}  // namespace ftdb::campaign
