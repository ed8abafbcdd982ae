// ftbench: the end-to-end benchmark program.
//
//   ftbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//           [--source-rev REV] [--plant hop|status]
//
// Prints human-readable notes, one `provenance {...}` line, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}. Exits 0
// when every check passed, 1 when a check failed (the result is still
// printed), 2 on a usage or setup error (nothing is printed).
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Outcome;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void usage() {
  std::fprintf(stderr,
               "usage: ftbench --workload serve_read|serve_churn|campaign_cell|"
               "campaign_survival --seed N --seconds S --trace 0|1 --scratch DIR "
               "[--source-rev REV] [--plant hop|status]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string source_rev = "unknown";
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0 || !args.contains("--workload") || !args.contains("--scratch")) {
    usage();
    return 2;
  }
  try {
    for (const auto& [key, value] : args) {
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--trace") options.trace = std::stoi(value) != 0;
      else if (key == "--scratch") options.scratch = value;
      else if (key == "--plant") options.plant = value;
      else if (key == "--source-rev") source_rev = value;
      else throw std::invalid_argument("unknown option " + key);
    }
    if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
    if (!options.plant.empty() && options.plant != "hop" && options.plant != "status") {
      throw std::invalid_argument("--plant must be hop or status");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftbench: %s\n", e.what());
    usage();
    return 2;
  }

  Outcome outcome;
  try {
    if (options.workload == "serve_read") outcome = perfbench::run_serve_read(options);
    else if (options.workload == "serve_churn") outcome = perfbench::run_serve_churn(options);
    else if (options.workload == "campaign_cell") outcome = perfbench::run_campaign_cell(options);
    else if (options.workload == "campaign_survival") {
      outcome = perfbench::run_campaign_survival(options);
    } else {
      std::fprintf(stderr, "ftbench: unknown workload '%s'\n", options.workload.c_str());
      usage();
      return 2;
    }
    perfbench::conform_metrics(outcome, options.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftbench: %s: %s\n", options.workload.c_str(), e.what());
    return 2;
  }

  for (const std::string& line : outcome.notes) std::printf("%s\n", line.c_str());
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"hardware_threads\": %u, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"source_rev\": \"%s\"}\n",
      json_escape(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape("gcc-compatible " __VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(source_rev).c_str());

  std::string metrics;
  for (const perfbench::Metric& m : outcome.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              outcome.correct() ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return outcome.correct() ? 0 : 1;
}
