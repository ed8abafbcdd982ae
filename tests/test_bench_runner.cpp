// bench_runner's repetition contract: every repetition of a benchmark runs on
// the same seeded input, so the reported metrics do not depend on how many
// repetitions were asked for (the exact-metric drift check in
// tools/bench_compare relies on this).
#include <gtest/gtest.h>

#include "analysis/bench_registry.hpp"
#include "analysis/bench_runner.hpp"

namespace {

using ftdb::analysis::BenchResult;
using ftdb::analysis::BenchRunOptions;
using ftdb::analysis::run_benchmarks;

// A randomized workload: its metrics are a function of the context's RNG
// stream, so any per-repetition reseeding would show up in them.
FTDB_BENCH(seeded_draws, "test_bench_runner/seeded_draws") {
  std::uint64_t sum = 0;
  for (int i = 0; i < 1000; ++i) sum += ctx.rng()() % 1000;
  ctx.report("draw_sum", static_cast<double>(sum));
  ctx.report("first_draw", static_cast<double>(ctx.rng()() % 1000000));
}

BenchResult run_with_repetitions(unsigned repetitions) {
  BenchRunOptions options;
  options.filter = "test_bench_runner/seeded_draws";
  options.repetitions = repetitions;
  const std::vector<BenchResult> results = run_benchmarks(options);
  EXPECT_EQ(results.size(), 1u);
  return results.empty() ? BenchResult{} : results.front();
}

TEST(BenchRunner, RepetitionCountDoesNotChangeMetrics) {
  const BenchResult one = run_with_repetitions(1);
  const BenchResult three = run_with_repetitions(3);
  ASSERT_TRUE(one.ok) << one.error;
  ASSERT_TRUE(three.ok) << three.error;
  EXPECT_EQ(one.wall_seconds.size(), 1u);
  EXPECT_EQ(three.wall_seconds.size(), 3u);
  ASSERT_EQ(one.metrics.size(), 2u);
  EXPECT_EQ(one.metrics, three.metrics);
}

TEST(BenchRunner, SameSeedSameMetricsDifferentSeedDifferentMetrics) {
  BenchRunOptions options;
  options.filter = "test_bench_runner/seeded_draws";
  const auto a = run_benchmarks(options);
  const auto b = run_benchmarks(options);
  options.seed += 1;
  const auto c = run_benchmarks(options);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(a.front().metrics, b.front().metrics);
  EXPECT_NE(a.front().metrics, c.front().metrics);
}

}  // namespace
