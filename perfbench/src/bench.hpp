// Shared pieces of the end-to-end benchmark program: options, the result every
// workload returns, a seeded input generator, order statistics, and the span
// tracer of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the timed window
  bool trace = false;     // traced run: per-layer metrics instead of end-to-end
  std::string plant;      // self-test: "hop" or "status" plants a wrong answer
  std::string scratch;    // directory for journals and span dumps
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted` counts every operation issued
/// (queries and mutations, or campaign trials); `failed` counts the checked
/// ones that came out wrong, threw, or broke an invariant.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool check_failed = false;           // a whole-run check (not one operation) failed
  std::vector<Metric> metrics;
  std::vector<std::string> notes;      // human-readable lines printed before the result

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a failed check; `count` operations are charged to it.
  void fail(const std::string& why, std::uint64_t count = 1);
  bool correct() const { return failed == 0 && !check_failed; }
};

/// splitmix64 stream: the only source of the benchmark's generated inputs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Mixes a workload seed with a stream label so independent input streams of
/// one run (reader 0, reader 1, the writer, ...) do not overlap.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t label);

/// Linear-interpolated quantile (q in [0, 1]); sorts `values` in place.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

double peak_rss_mib();

/// Runs `build` until at least `min_reps` repetitions and `min_seconds` have
/// passed and returns the median wall time of one repetition in seconds.
template <typename F>
double median_setup_seconds(int min_reps, double min_seconds, F&& build) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps ||
         seconds_between(start, Clock::now()) < min_seconds) {
    const Clock::time_point t0 = Clock::now();
    build();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(times));
}

// ---- tracing ---------------------------------------------------------------

/// One recorded span. `parent` is 0 for a root span; ids start at 1 and are
/// unique within one Tracer. `request` is the wave, mutation or trial index.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder for one thread. Spans are closed explicitly; the
/// recorder never allocates while a span is open beyond the vector growth.
class Tracer {
 public:
  explicit Tracer(std::uint32_t id_base = 0) : next_id_(id_base + 1) {}

  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint64_t request);
  void end(std::uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  void absorb(const Tracer& other);

 private:
  std::uint32_t next_id_;
  std::vector<Span> spans_;
};

/// Per-name totals over a set of spans. Self time is a span's duration minus
/// the durations of its children, clamped at zero.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  double mean_ns() const { return count == 0 ? 0.0 : total_ns / static_cast<double>(count); }
  double self_mean_ns() const { return count == 0 ? 0.0 : self_ns / static_cast<double>(count); }
};

struct SpanSummary {
  std::vector<std::pair<std::string, SpanTotals>> by_name;  // sorted by name
  const SpanTotals& operator[](const std::string& name) const;
};

SpanSummary summarize(const std::vector<Span>& spans);

/// Writes the spans as tab-separated rows (id, parent, name, request,
/// start_ns, end_ns, self_ns) and appends the per-name summary to `out`.
void dump_spans(const std::vector<Span>& spans, const std::string& path, Outcome& out);

// ---- the published metrics ---------------------------------------------------

/// Puts `out.metrics` into the benchmark's published order. An untraced run
/// must carry every end-to-end metric; a traced run carries every per-layer
/// metric, and a layer stage the workload never calls reads 0. Throws
/// std::logic_error on a missing end-to-end metric or an unknown name.
void conform_metrics(Outcome& out, bool trace);

// ---- workloads ---------------------------------------------------------------

Outcome run_serve_read(const Options& options);
Outcome run_serve_churn(const Options& options);
Outcome run_campaign_cell(const Options& options);
Outcome run_campaign_survival(const Options& options);

}  // namespace perfbench
