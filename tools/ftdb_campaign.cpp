// ftdb_campaign — Monte Carlo fault-injection campaigns from the command
// line. A campaign spec (JSON) declares a grid of topologies x spare budgets
// x fault models; the engine runs 256-trial blocks of every cell on one
// block pool and emits deterministic JSON/CSV/markdown reports
// (byte-identical for any --threads value, across crashed-and-resumed
// workers, and across --cells splits).
//
//   ftdb_campaign example-spec > demo.json
//   ftdb_campaign run --spec demo.json --out report.json --md report.md
//
//   # durable: blocks land in DIR's block log; rerunning with the same
//   # --worker-id after a crash resumes at once
//   ftdb_campaign run --spec big.json --elastic big.d --worker-id me
//   ftdb_campaign merge --elastic big.d --out report.json
//
//   # static split: one cell filter per machine, then merge the directories
//   ftdb_campaign run --spec big.json --elastic d0 --cells 0/2
//   ftdb_campaign run --spec big.json --elastic d1 --cells 1/2
//   ftdb_campaign merge --elastic d0 d1 --out report.json
//
//   # elastic: any number of workers join/leave through a shared directory;
//   # dead workers' cell leases age out and are reclaimed
//   ftdb_campaign run --spec big.json --elastic /shared/big &
//   ftdb_campaign run --spec big.json --elastic /shared/big &
//   ftdb_campaign merge --elastic /shared/big --partial       # live snapshot
//   ftdb_campaign merge --elastic /shared/big --out report.json
//
//   ftdb_campaign validate report.json
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/elastic/elastic.hpp"
#include "campaign/elastic/partial.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"

namespace {

int usage() {
  std::cerr
      << "usage:\n"
         "  ftdb_campaign run --spec FILE [options]\n"
         "  ftdb_campaign merge --elastic DIR [DIR...] [--out FILE] [--csv FILE] [--md FILE]\n"
         "  ftdb_campaign merge --elastic DIR --partial [--out FILE]\n"
         "  ftdb_campaign example-spec [--full]\n"
         "  ftdb_campaign validate-spec SPEC.json\n"
         "  ftdb_campaign validate REPORT.json\n"
         "\n"
         "run options:\n"
         "  --spec FILE             campaign spec JSON (required)\n"
         "  --out FILE              write the JSON report (default: stdout)\n"
         "  --csv FILE              also write a CSV report\n"
         "  --md FILE               also write a markdown report\n"
         "  --threads N             worker threads (0 = hardware, default 0)\n"
         "  --quiet                 no per-scenario progress on stderr\n"
         "\n"
         "durable run options (workers coordinate through a shared directory):\n"
         "  --elastic DIR           join the campaign at DIR: lease cells, append\n"
         "                          completed blocks to DIR/logs/<worker>.blk, reclaim\n"
         "                          dead workers' leases (no report; `merge --elastic`\n"
         "                          produces it)\n"
         "  --worker-id ID          stable worker name (default: <host>-<pid>); a rerun\n"
         "                          with the same id reclaims its own leases at once.\n"
         "                          Two live workers must not share an id\n"
         "  --cells I/N             claim only the cells slice I of N owns (round-robin\n"
         "                          by cell index); merge the slices' directories\n"
         "  --lease-ttl SEC         lease staleness horizon (default 30)\n"
         "  --stop-after-blocks N   crash-simulation hook: abort (exit 3) once N trial\n"
         "                          blocks are durable, leaving the held leases behind\n"
         "  --no-fsync              skip fsync on block appends (tests only)\n"
         "\n"
         "merge --elastic reads the campaign from each DIR (spec.json + compacted.ckpt +\n"
         "block logs). Every DIR must host the same spec and every cell must be complete\n"
         "in one of them; the report is byte-identical to a single-machine run.\n"
         "--partial emits a stamped JSON coverage snapshot of a still-running campaign\n"
         "instead of requiring completion.\n";
  return 2;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out.flush());
}

ftdb::campaign::ShardSpec parse_cells_arg(const std::string& s) {
  unsigned index = 0;
  unsigned count = 0;
  char tail = '\0';
  if (std::sscanf(s.c_str(), "%u/%u%c", &index, &count, &tail) != 2 || count == 0) {
    std::cerr << "ftdb_campaign: --cells wants I/N (e.g. 0/4), got \"" << s << "\"\n";
    std::exit(2);
  }
  return {index, count};
}

/// Writes the three report renderings; returns false (with a message) on any
/// I/O failure. An empty out_path sends the JSON to stdout.
bool emit_reports(const ftdb::campaign::CampaignResult& result, const std::string& out_path,
                  const std::string& csv_path, const std::string& md_path) {
  using namespace ftdb::campaign;
  const std::string report = campaign_report_json(result);
  if (out_path.empty()) {
    std::cout << report;
  } else if (!write_file(out_path, report)) {
    std::cerr << "ftdb_campaign: cannot write " << out_path << "\n";
    return false;
  }
  if (!csv_path.empty() && !write_file(csv_path, campaign_report_csv(result))) {
    std::cerr << "ftdb_campaign: cannot write " << csv_path << "\n";
    return false;
  }
  if (!md_path.empty() && !write_file(md_path, campaign_report_markdown(result))) {
    std::cerr << "ftdb_campaign: cannot write " << md_path << "\n";
    return false;
  }
  return true;
}

int run_command(const std::vector<std::string>& args) {
  using namespace ftdb::campaign;
  std::string spec_path;
  std::string out_path;
  std::string csv_path;
  std::string md_path;
  CampaignOptions options;
  elastic::ElasticOptions durable;
  bool quiet = false;
  bool durable_only = false;  // an option given that only --elastic takes

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "ftdb_campaign: " << arg << " requires an argument\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--spec") {
      spec_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--md") {
      md_path = next();
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--elastic") {
      durable.dir = next();
    } else if (arg == "--worker-id") {
      durable.worker_id = next();
      durable_only = true;
    } else if (arg == "--cells") {
      durable.cells = parse_cells_arg(next());
      durable_only = true;
    } else if (arg == "--lease-ttl") {
      durable.lease_ttl_seconds = std::stoull(next());
      durable_only = true;
    } else if (arg == "--stop-after-blocks") {
      durable.stop_after_blocks = std::stoull(next());
      durable_only = true;
    } else if (arg == "--no-fsync") {
      durable.fsync = false;
      durable_only = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "ftdb_campaign: unknown option " << arg << "\n";
      return usage();
    }
  }
  if (spec_path.empty()) {
    std::cerr << "ftdb_campaign: run needs --spec\n";
    return usage();
  }
  if (durable.dir.empty() && durable_only) {
    std::cerr << "ftdb_campaign: --worker-id, --cells, --lease-ttl, --stop-after-blocks and "
                 "--no-fsync need --elastic DIR\n";
    return usage();
  }
  if (!durable.dir.empty() && !(out_path.empty() && csv_path.empty() && md_path.empty())) {
    std::cerr << "ftdb_campaign: --elastic does not emit reports; run `merge --elastic` "
                 "on the directory instead\n";
    return usage();
  }
  const auto spec_text = read_file(spec_path);
  if (!spec_text) {
    std::cerr << "ftdb_campaign: cannot read " << spec_path << "\n";
    return 2;
  }
  const ScenarioSpec spec = parse_scenario_spec(*spec_text);

  if (!durable.dir.empty()) {
    durable.threads = options.threads;
    if (!quiet) durable.progress = &std::cerr;
    try {
      const elastic::ElasticResult r = elastic::run_elastic_worker(spec, durable);
      if (!quiet) {
        std::cerr << "elastic worker done: " << r.blocks_run << " blocks run, "
                  << r.blocks_skipped << " already durable, " << r.cells_leased
                  << " cells leased, " << r.leases_reclaimed << " stale leases reclaimed"
                  << (r.campaign_complete ? "; campaign complete\n" : "\n");
      }
    } catch (const elastic::ElasticAborted& aborted) {
      std::cerr << "ftdb_campaign: " << aborted.what() << "; durable blocks stay in "
                << durable.dir << "\n";
      return 3;
    }
    return 0;
  }

  if (!quiet) options.progress = &std::cerr;
  const CampaignResult result = run_campaign(spec, options);
  if (!emit_reports(result, out_path, csv_path, md_path)) return 2;
  if (!quiet) {
    std::cerr << "campaign \"" << spec.name << "\": " << result.scenarios.size()
              << " scenarios x " << spec.trials << " trials done\n";
  }
  return 0;
}

int merge_command(const std::vector<std::string>& args) {
  using namespace ftdb::campaign;
  std::string spec_path;
  std::string out_path;
  std::string csv_path;
  std::string md_path;
  std::vector<std::string> dirs;
  bool partial_snapshot = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "ftdb_campaign: " << arg << " requires an argument\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--spec") {
      spec_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--md") {
      md_path = next();
    } else if (arg == "--elastic") {
      dirs.push_back(next());
    } else if (arg == "--partial") {
      partial_snapshot = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ftdb_campaign: unknown option " << arg << "\n";
      return usage();
    } else if (!dirs.empty()) {
      dirs.push_back(arg);  // merge --elastic DIR [DIR...]
    } else {
      std::cerr << "ftdb_campaign: merge reads elastic directories; use --elastic DIR\n";
      return usage();
    }
  }
  if (dirs.empty()) {
    std::cerr << "ftdb_campaign: merge needs --elastic DIR\n";
    return usage();
  }
  // The directories carry their own canonical spec; an explicit --spec just
  // has to agree with it.
  const ScenarioSpec spec = elastic::load_elastic_spec(dirs.front());
  if (!spec_path.empty()) {
    const auto spec_text = read_file(spec_path);
    if (!spec_text) {
      std::cerr << "ftdb_campaign: cannot read " << spec_path << "\n";
      return 2;
    }
    if (spec_fingerprint(parse_scenario_spec(*spec_text)) != spec_fingerprint(spec)) {
      std::cerr << "ftdb_campaign: --spec disagrees with " << dirs.front() << "/spec.json\n";
      return 1;
    }
  }
  if (partial_snapshot) {
    if (dirs.size() != 1 || !csv_path.empty() || !md_path.empty()) {
      std::cerr << "ftdb_campaign: --partial emits the JSON snapshot of one directory only\n";
      return usage();
    }
    const std::string report = elastic::partial_elastic_report_json(spec, dirs.front());
    if (out_path.empty()) {
      std::cout << report;
    } else if (!write_file(out_path, report)) {
      std::cerr << "ftdb_campaign: cannot write " << out_path << "\n";
      return 2;
    }
    return 0;
  }
  const CampaignResult result = elastic::merge_elastic(spec, dirs);
  if (!emit_reports(result, out_path, csv_path, md_path)) return 2;
  std::cerr << "merged elastic campaign from " << dirs.size() << " director"
            << (dirs.size() == 1 ? "y" : "ies") << ": " << result.scenarios.size()
            << " scenarios x " << spec.trials << " trials\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "example-spec" && args.empty()) {
      std::cout << ftdb::campaign::example_spec_json();
      return 0;
    }
    if (cmd == "example-spec" && args.size() == 1 && args[0] == "--full") {
      // The kitchen-sink spec: every family, fault model, metric and traffic
      // knob (see docs/SCENARIOS.md). CI round-trips it through validate-spec.
      std::cout << ftdb::campaign::full_example_spec_json();
      return 0;
    }
    if (cmd == "validate-spec" && args.size() == 1) {
      const auto text = read_file(args[0]);
      if (!text) {
        std::cerr << "ftdb_campaign: cannot read " << args[0] << "\n";
        return 2;
      }
      using namespace ftdb::campaign;
      const ScenarioSpec spec = parse_scenario_spec(*text);
      // The canonical form must be a fixed point: parse -> write -> parse ->
      // write yields the same bytes (and hence the same fingerprint), or
      // elastic directories and their merges could never agree on the stamp.
      const std::string canon = scenario_spec_to_json(spec);
      const ScenarioSpec again = parse_scenario_spec(canon);
      if (scenario_spec_to_json(again) != canon) {
        std::cerr << "ftdb_campaign: " << args[0]
                  << ": canonical spec form is not a round-trip fixed point\n";
        return 1;
      }
      const std::size_t cells = expand_grid(spec).size();
      char fp[32];
      std::snprintf(fp, sizeof fp, "%016llx",
                    static_cast<unsigned long long>(spec_fingerprint(spec)));
      std::cout << args[0] << ": valid campaign spec \"" << spec.name << "\", " << cells
                << " cells x " << spec.trials << " trials, fingerprint " << fp << "\n";
      return 0;
    }
    if (cmd == "validate" && args.size() == 1) {
      const auto text = read_file(args[0]);
      if (!text) {
        std::cerr << "ftdb_campaign: cannot read " << args[0] << "\n";
        return 2;
      }
      const std::size_t n = ftdb::campaign::validate_campaign_report(*text);
      std::cout << args[0] << ": valid ftdb-campaign-v1 report, " << n << " scenarios\n";
      return 0;
    }
    if (cmd == "run") return run_command(args);
    if (cmd == "merge") return merge_command(args);
  } catch (const std::exception& e) {
    std::cerr << "ftdb_campaign: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
