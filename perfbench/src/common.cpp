#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

void Outcome::fail(const std::string& why, std::uint64_t count) {
  check_failed = check_failed || count == 0;
  failed += count;
  // Keep the log readable when one defect repeats across many operations.
  if (notes.size() < 200) notes.push_back("FAIL: " + why);
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t label) {
  InputRng mix(seed ^ (label * 0xd1b54a32d192ed03ull));
  mix.next();
  return mix.next();
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double peak_rss_mib() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss is
  // not used: Linux carries it across execve, so it would report the peak of
  // the process that launched the benchmark when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    // serve_read / serve_churn read path
    {"topology.distance_ns", "ns"},
    {"sim.route_many_ns", "ns"},
    {"serve.next_hops_ns", "ns"},
    {"serve.translate_ns", "ns"},
    {"sim.route_cache_bytes", "bytes"},
    {"serve.wave_p50_us", "us"},
    {"serve.wave_p99_us", "us"},
    // serve_churn write path
    {"serve.mutation_p50_ms", "ms"},
    {"serve.mutation_p95_ms", "ms"},
    {"serve.journal_append_us", "us"},
    {"ft.online_apply_us", "us"},
    {"sim.router_copy_ms", "ms"},
    {"sim.router_patch_ms", "ms"},
    {"sim.router_exceptions", "count"},
    {"serve.publish_ms", "ms"},
    {"serve.epochs_live_max", "count"},
    {"serve.journal_bytes", "bytes"},
    // campaign trial pipeline
    {"campaign.draw_us", "us"},
    {"ft.survive_us", "us"},
    {"sim.machine_us", "us"},
    {"sim.live_graph_us", "us"},
    {"graph.diameter_ms", "ms"},
    {"graph.induced_subgraph_us", "us"},
    {"sim.stretch_us", "us"},
    {"sim.schedule_build_us", "us"},
    {"sim.schedule_builds", "1/trial"},
    {"sim.collective_us", "us"},
    {"sim.traffic_gen_us", "us"},
    {"sim.engine_us", "us"},
    {"sim.engine_cycles", "cycles/trial"},
    {"campaign.block_ms", "ms"},
    {"campaign.self_us", "us"},
    {"campaign.success_frac", "ratio"},
    {"campaign.stage_coverage", "ratio"},
    // every workload
    {"trace.overhead_frac", "ratio"},
};

}  // namespace

void conform_metrics(Outcome& out, bool trace) {
  const auto specs = trace ? std::span<const MetricSpec>(kPerLayer)
                           : std::span<const MetricSpec>(kEndToEnd);
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : specs) {
    const auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                                 [&](const Metric& m) { return m.name == spec.name; });
    if (it == out.metrics.end()) {
      if (!trace) throw std::logic_error(std::string("missing end-to-end metric ") + spec.name);
      ordered.push_back({spec.name, 0.0, spec.unit});
      continue;
    }
    if (it->unit != spec.unit) {
      throw std::logic_error("metric " + it->name + " reported in " + it->unit);
    }
    if (!std::isfinite(it->value)) out.fail("metric " + it->name + " is not finite", 0);
    ordered.push_back({spec.name, std::isfinite(it->value) ? it->value : 0.0, spec.unit});
  }
  for (const Metric& m : out.metrics) {
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const MetricSpec& s) { return m.name == s.name; })) {
      throw std::logic_error("metric " + m.name + " is not in the published list");
    }
  }
  out.metrics = std::move(ordered);
}

// ---- tracing ---------------------------------------------------------------

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent, std::uint64_t request) {
  const std::uint32_t id = next_id_++;
  spans_.push_back({id, parent, name, request, now_ns(), 0});
  return id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t t = now_ns();
  // The span being closed is almost always the most recent open one.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = t;
      return;
    }
  }
  throw std::logic_error("Tracer::end: unknown span id");
}

void Tracer::absorb(const Tracer& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

const SpanTotals& SpanSummary::operator[](const std::string& name) const {
  static const SpanTotals kNone;
  for (const auto& [n, totals] : by_name) {
    if (n == name) return totals;
  }
  return kNone;
}

namespace {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it != index.end()) self[it->second] -= static_cast<double>(s.end_ns - s.start_ns);
  }
  for (double& v : self) v = std::max(v, 0.0);
  return self;
}

}  // namespace

SpanSummary summarize(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::unordered_map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.self_ns += self[i];
  }
  SpanSummary summary;
  summary.by_name.assign(totals.begin(), totals.end());
  std::sort(summary.by_name.begin(), summary.by_name.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return summary;
}

void dump_spans(const std::vector<Span>& spans, const std::string& path, Outcome& out) {
  const std::vector<double> self = self_times(spans);
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw std::runtime_error("cannot write span dump " + path);
  file << "id\tparent\tname\trequest\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    file << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.request << '\t' << s.start_ns
         << '\t' << s.end_ns << '\t' << static_cast<std::int64_t>(self[i]) << '\n';
  }
  if (!file.flush()) throw std::runtime_error("cannot write span dump " + path);
  out.note("spans: " + std::to_string(spans.size()) + " written to " + path);
  char line[160];
  out.note("span                         count     mean_us   self_mean_us");
  for (const auto& [name, t] : summarize(spans).by_name) {
    std::snprintf(line, sizeof line, "%-26s %8llu %11.3f %14.3f", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.mean_ns() / 1e3,
                  t.self_mean_ns() / 1e3);
    out.note(line);
  }
}

}  // namespace perfbench
