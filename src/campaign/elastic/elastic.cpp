#include "campaign/elastic/elastic.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "campaign/elastic/lease.hpp"
#include "io/framed_log.hpp"

namespace ftdb::campaign::elastic {
namespace {

namespace fs = std::filesystem;

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("elastic: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string spec_path(const std::string& dir) { return dir + "/spec.json"; }
std::string ckpt_path(const std::string& dir) { return dir + "/compacted.ckpt"; }
std::string cell_lease_path(const std::string& dir, std::size_t cell) {
  return dir + "/leases/cell-" + std::to_string(cell) + ".lease";
}
std::string compact_lease_path(const std::string& dir) { return dir + "/leases/compact.lease"; }
std::string own_log_path(const std::string& dir, const std::string& worker_id) {
  return dir + "/logs/" + worker_id + ".blk";
}

std::string default_worker_id() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof buf - 1) != 0) std::strcpy(buf, "worker");
  return std::string(buf) + "-" + std::to_string(::getpid());
}

void validate_spec(const ScenarioSpec& spec, const std::vector<ScenarioCase>& cells) {
  if (cells.empty()) throw std::runtime_error("elastic: spec expands to zero cells");
  if (spec.trials == 0) throw std::runtime_error("elastic: spec asks for zero trials");
}

/// Cell indices, most expensive predicted cell first (ties by index), so the
/// campaign's long poles start earliest and the tail stays short.
std::vector<std::size_t> cost_order(const ScenarioSpec& spec,
                                    const std::vector<ScenarioCase>& cells) {
  std::vector<std::pair<double, std::size_t>> keyed;
  keyed.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    keyed.emplace_back(-predicted_cell_cost(spec, cells[i]), i);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::size_t> order;
  order.reserve(keyed.size());
  for (const auto& [cost, i] : keyed) order.push_back(i);
  return order;
}

}  // namespace

void ensure_elastic_dir(const ScenarioSpec& spec, const std::string& dir) {
  fs::create_directories(dir + "/leases");
  fs::create_directories(dir + "/logs");
  const std::string canonical = scenario_spec_to_json(spec);
  std::error_code ec;
  if (fs::exists(spec_path(dir), ec)) {
    const ScenarioSpec existing = parse_scenario_spec(read_text_file(spec_path(dir)));
    if (spec_fingerprint(existing) != spec_fingerprint(spec)) {
      throw std::runtime_error("elastic: " + dir +
                               " already hosts a different campaign (spec fingerprint mismatch)");
    }
    return;
  }
  // Two workers racing here both write the canonical serialization of the
  // same spec, so last-rename-wins is byte-identical either way.
  io::replace_file(spec_path(dir), canonical, true);
}

ScenarioSpec load_elastic_spec(const std::string& dir) {
  return parse_scenario_spec(read_text_file(spec_path(dir)));
}

std::optional<ProgressCache::Stamp> ProgressCache::stamp_of(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return Stamp{static_cast<std::uint64_t>(st.st_dev), static_cast<std::uint64_t>(st.st_ino),
               static_cast<std::uint64_t>(st.st_size),
               static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 + st.st_mtim.tv_nsec};
}

const Checkpoint* ProgressCache::checkpoint(const std::string& path) {
  const std::optional<Stamp> stamp = stamp_of(path);
  if (!stamp) {
    ckpt_stamp_.reset();
    ckpt_.reset();
    return nullptr;
  }
  if (ckpt_stamp_ != stamp || !ckpt_) {
    ckpt_.reset();  // a failed parse must not leave the old one under the new stamp
    ckpt_ = parse_checkpoint(read_text_file(path));
    ckpt_stamp_ = stamp;
    ++parses_;
  }
  return &*ckpt_;
}

const std::vector<BlockRecord>& ProgressCache::log(const std::string& path,
                                                   std::uint64_t fingerprint) {
  // Logs are never removed, so a log that cannot be stamped is an I/O fault.
  const std::optional<Stamp> stamp = stamp_of(path);
  if (!stamp) throw std::runtime_error("elastic: cannot stat " + path);
  auto& [cached_stamp, records] = logs_[path];
  if (cached_stamp != *stamp) {
    records.clear();  // a failed read must not leave the old records under the new stamp
    cached_stamp = Stamp{};
    records = BlockLog::read(path, fingerprint);
    cached_stamp = *stamp;
    ++parses_;
  }
  return records;
}

ElasticProgress load_elastic_progress(const ScenarioSpec& spec, const std::string& dir,
                                      ProgressCache* cache) {
  ProgressCache local;
  ProgressCache& files = cache != nullptr ? *cache : local;
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  validate_spec(spec, cells);
  const std::uint64_t spec_fp = spec_fingerprint(spec);
  const std::uint64_t total_blocks = num_trial_blocks(spec.trials);

  ElasticProgress progress;
  progress.cells.resize(cells.size());
  progress.finalized.assign(cells.size(), 0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    progress.cells[i].scenario_index = i;
    progress.cells[i].prefix.scenario_index = i;
  }
  // Blocks durable past each cell's prefix, deduped by block index. Lease
  // races can make two logs carry the same (cell, block); the copies are
  // byte-identical (counter-based trials), so first-wins is exact.
  std::vector<std::map<std::uint64_t, ScenarioResult>> extras(cells.size());

  if (const Checkpoint* snapshot = files.checkpoint(ckpt_path(dir))) {
    const Checkpoint& ckpt = *snapshot;
    if (ckpt.fingerprint != spec_fp) {
      throw std::runtime_error("elastic: " + ckpt_path(dir) +
                               " belongs to a different spec (fingerprint mismatch)");
    }
    for (const CellProgress& cp : ckpt.cells) {
      if (cp.scenario_index >= cells.size()) {
        throw std::runtime_error("elastic: checkpoint cell " +
                                 std::to_string(cp.scenario_index) + " is outside the grid");
      }
      if (cp.prefix_blocks > total_blocks) {
        throw std::runtime_error("elastic: checkpoint cell " +
                                 std::to_string(cp.scenario_index) + " claims " +
                                 std::to_string(cp.prefix_blocks) + " of " +
                                 std::to_string(total_blocks) + " blocks");
      }
      if (cp.prefix.trials != trials_in_prefix(spec.trials, cp.prefix_blocks)) {
        throw std::runtime_error("elastic: checkpoint cell " +
                                 std::to_string(cp.scenario_index) +
                                 " carries a trial count inconsistent with its block count");
      }
      progress.cells[cp.scenario_index] = cp;
      progress.finalized[cp.scenario_index] = cp.prefix_blocks == total_blocks ? 1 : 0;
      for (const auto& [block, partial] : cp.extra) {
        if (block < cp.prefix_blocks || block >= total_blocks) {
          throw std::runtime_error("elastic: checkpoint cell " +
                                   std::to_string(cp.scenario_index) +
                                   " has an out-of-range extra block");
        }
        extras[cp.scenario_index].emplace(block, partial);
      }
      progress.cells[cp.scenario_index].extra.clear();  // re-drained below
    }
  }

  // Every worker's log, in sorted filename order (determinism of the scan;
  // the records themselves are order-independent thanks to dedup-by-block).
  std::vector<std::string> log_paths;
  std::error_code ec;
  if (fs::exists(dir + "/logs", ec)) {
    for (const auto& entry : fs::directory_iterator(dir + "/logs")) {
      if (entry.path().extension() == ".blk") log_paths.push_back(entry.path().string());
    }
  }
  std::sort(log_paths.begin(), log_paths.end());
  for (const std::string& path : log_paths) {
    for (const BlockRecord& rec : files.log(path, spec_fp)) {
      if (rec.cell >= cells.size()) {
        throw std::runtime_error("elastic: " + path + " records a cell outside the grid");
      }
      if (rec.block >= total_blocks) {
        throw std::runtime_error("elastic: " + path + " records a block outside the campaign");
      }
      if (rec.partial.trials != trials_in_block(spec.trials, rec.block) ||
          rec.partial.scenario_index != rec.cell) {
        throw std::runtime_error("elastic: " + path + " records a malformed block partial");
      }
      if (rec.block < progress.cells[rec.cell].prefix_blocks) continue;  // compacted already
      extras[rec.cell].emplace(rec.block, rec.partial);                  // first copy wins
    }
  }

  // Drain contiguous runs into each prefix; what remains stays as extras.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellProgress& cp = progress.cells[i];
    auto& pool = extras[i];
    while (!pool.empty() && pool.begin()->first == cp.prefix_blocks) {
      cp.prefix.merge(pool.begin()->second);
      ++cp.prefix_blocks;
      pool.erase(pool.begin());
    }
    for (auto& [block, partial] : pool) cp.extra.emplace_back(block, std::move(partial));
    progress.durable_blocks += cp.prefix_blocks + cp.extra.size();
  }
  return progress;
}

bool compact_elastic_dir(const ScenarioSpec& spec, const std::string& dir,
                         const std::string& worker_id, BlockLog* own_log,
                         std::uint64_t lease_ttl_seconds, bool fsync,
                         const CellRunners& runners, ElasticProgress* folded,
                         ProgressCache* cache) {
  Lease lock = Lease::try_acquire(compact_lease_path(dir), worker_id, lease_ttl_seconds);
  if (!lock.held()) return false;  // someone else is compacting; theirs covers our records

  const std::vector<ScenarioCase> cells = expand_grid(spec);
  const std::uint64_t total_blocks = num_trial_blocks(spec.trials);
  ElasticProgress progress = load_elastic_progress(spec, dir, cache);

  Checkpoint ckpt;  // the fingerprint is derived by the serializer
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellProgress& cp = progress.cells[i];
    if (cp.prefix_blocks == 0 && cp.extra.empty()) continue;
    if (cp.prefix_blocks == total_blocks && progress.finalized[i] == 0) {
      // A checkpointed complete prefix is finalized by convention; cells
      // completed by log records still carry raw accumulators.
      const auto built = runners.find(i);
      if (built != runners.end()) {
        built->second->finalize(cp.prefix);
      } else {
        CellRunner(spec, cells[i]).finalize(cp.prefix);
      }
      progress.finalized[i] = 1;
    }
    ckpt.cells.push_back(cp);
  }
  // Write the new snapshot BEFORE truncating any log: a crash between the
  // two leaves duplicate records, which dedup makes harmless; the reverse
  // order could lose blocks.
  io::replace_file(ckpt_path(dir), checkpoint_to_json(spec, ckpt), fsync);
  if (own_log != nullptr) own_log->truncate_all();
  lock.release();
  if (folded != nullptr) *folded = std::move(progress);
  return true;
}

namespace {

/// One cell this worker holds a lease on.
struct HeldCell {
  Lease lease;
  std::uint64_t blocks_left = 0;  ///< queued blocks not yet appended
  std::uint64_t blocks_run = 0;
  bool lost = false;              ///< the heartbeat found the lease reclaimed
  std::once_flag built;
  std::unique_ptr<CellRunner> runner;  ///< built by the first block that runs
};

/// Not-yet-durable blocks of one cell, in block order.
std::vector<std::uint64_t> missing_blocks(const CellProgress& cp, std::uint64_t total_blocks) {
  std::vector<std::uint64_t> missing;
  std::size_t extra_at = 0;
  for (std::uint64_t b = cp.prefix_blocks; b < total_blocks; ++b) {
    while (extra_at < cp.extra.size() && cp.extra[extra_at].first < b) ++extra_at;
    if (extra_at < cp.extra.size() && cp.extra[extra_at].first == b) continue;
    missing.push_back(b);
  }
  return missing;
}

}  // namespace

ElasticResult run_elastic_worker(const ScenarioSpec& spec, const ElasticOptions& options) {
  if (options.dir.empty()) throw std::runtime_error("elastic: no directory given");
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  validate_spec(spec, cells);
  validate_shard(options.cells, cells.size());
  const std::uint64_t spec_fp = spec_fingerprint(spec);
  const std::uint64_t total_blocks = num_trial_blocks(spec.trials);
  const std::string worker_id =
      options.worker_id.empty() ? default_worker_id() : options.worker_id;
  const std::uint64_t ttl = std::max<std::uint64_t>(1, options.lease_ttl_seconds);
  const unsigned threads = options.threads == 0
                               ? std::max(1u, std::thread::hardware_concurrency())
                               : options.threads;

  ensure_elastic_dir(spec, options.dir);
  BlockLog log(own_log_path(options.dir, worker_id), spec_fp, options.fsync);
  // Every progress read below goes through one cache, so a sweep re-parses
  // only the files that changed since the last one.
  ProgressCache files;
  // A restarted worker's own log may hold a dead predecessor's blocks; fold
  // them (and anyone else's) forward before claiming anything.
  compact_elastic_dir(spec, options.dir, worker_id, &log, ttl, options.fsync, {}, nullptr,
                      &files);

  std::vector<std::size_t> order;
  for (const std::size_t idx : cost_order(spec, cells)) {
    if (options.cells.owns(idx)) order.push_back(idx);
  }

  // `mu` guards everything below it, the block log and the lease files.
  std::mutex mu;
  ElasticResult res;
  std::map<std::size_t, std::shared_ptr<HeldCell>> held;
  std::map<std::size_t, std::shared_ptr<HeldCell>> finished;  // not yet compacted
  bool aborted = false;

  auto compact = [&](ElasticProgress* folded) {
    CellRunners runners;
    for (const auto& [idx, cell] : finished) {
      if (cell->runner != nullptr) runners.emplace(idx, cell->runner.get());
    }
    if (!compact_elastic_dir(spec, options.dir, worker_id, &log, ttl, options.fsync, runners,
                             folded, &files)) {
      return false;
    }
    finished.clear();
    return true;
  };
  auto all_durable = [&](const ElasticProgress& progress) {
    return std::all_of(order.begin(), order.end(), [&](std::size_t idx) {
      return progress.cells[idx].prefix_blocks == total_blocks;
    });
  };

  // One claim sweep: compact what finished, then lease cells in cost order
  // until the new cells bring at least `threads` unstarted blocks. Cells
  // claimed once are not claimed again in the same pool run.
  std::vector<char> claimed(cells.size(), 0);
  auto sweep = [&](std::vector<BlockUnit>& more) {
    const std::lock_guard<std::mutex> lock(mu);
    if (aborted) return;
    ElasticProgress progress;
    if (finished.empty() || !compact(&progress)) {
      progress = load_elastic_progress(spec, options.dir, &files);
    }
    std::vector<std::size_t> fresh;
    std::uint64_t expected = 0;
    for (const std::size_t idx : order) {
      if (expected >= threads) break;
      if (claimed[idx] != 0 || progress.cells[idx].prefix_blocks == total_blocks) continue;
      bool reclaimed = false;
      Lease lease =
          Lease::try_acquire(cell_lease_path(options.dir, idx), worker_id, ttl, &reclaimed);
      if (reclaimed) ++res.leases_reclaimed;
      if (!lease.held()) continue;
      claimed[idx] = 1;
      ++res.cells_leased;
      expected += missing_blocks(progress.cells[idx], total_blocks).size();
      auto cell = std::make_shared<HeldCell>();
      cell->lease = std::move(lease);
      held.emplace(idx, std::move(cell));
      fresh.push_back(idx);
    }
    if (fresh.empty()) return;
    // Re-read now that the cells are ours: a holder may have appended more
    // blocks — or finished and released the cell — after the first read, and
    // a reclaimed cell's dead holder may have made more blocks durable than
    // that read saw. The cache makes this cost only the changed files.
    progress = load_elastic_progress(spec, options.dir, &files);
    for (const std::size_t idx : fresh) {
      HeldCell& cell = *held.at(idx);
      const std::vector<std::uint64_t> missing =
          missing_blocks(progress.cells[idx], total_blocks);
      res.blocks_skipped += total_blocks - missing.size();
      cell.blocks_left = missing.size();
      if (missing.empty()) {
        cell.lease.release();
        held.erase(idx);
        continue;
      }
      for (const std::uint64_t b : missing) more.push_back({idx, b});
    }
    res.max_cells_held = std::max<std::uint64_t>(res.max_cells_held, held.size());
  };

  auto run_unit = [&](const BlockUnit& u) {
    std::shared_ptr<HeldCell> cell;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (aborted) return;
      cell = held.at(u.cell);
      if (cell->lost) return;
    }
    std::call_once(cell->built,
                   [&] { cell->runner = std::make_unique<CellRunner>(spec, cells[u.cell]); });
    const ScenarioResult partial = cell->runner->run_block(u.block);

    const std::lock_guard<std::mutex> lock(mu);
    if (aborted || cell->lost) return;  // the crash hook fired mid-compute
    log.append({u.cell, u.block, partial});
    ++res.blocks_run;
    ++cell->blocks_run;
    if (options.stop_after_blocks != 0 && res.blocks_run >= options.stop_after_blocks) {
      aborted = true;
      throw ElasticAborted(res.blocks_run);
    }
    if (--cell->blocks_left > 0) return;
    cell->lease.release();
    if (options.progress != nullptr) {
      *options.progress << "[" << worker_id << "] " << cells[u.cell].label() << ": ran "
                        << cell->blocks_run << "/" << total_blocks << " blocks\n";
    }
    finished.emplace(u.cell, std::move(cell));
    held.erase(u.cell);
  };

  // One heartbeat thread for every held lease, at ttl/3, so long blocks
  // cannot starve a lease into looking dead.
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread heartbeat([&] {
    const auto interval =
        std::chrono::milliseconds(std::max<std::uint64_t>(ttl * 1000 / 3, 100));
    std::unique_lock<std::mutex> lk(mu);
    while (!hb_cv.wait_for(lk, interval, [&] { return hb_stop; })) {
      for (auto& [idx, cell] : held) {
        if (cell->lost) continue;
        try {
          cell->lease.heartbeat();
        } catch (...) {
          // LeaseLost or I/O trouble: stop running this cell. Everything
          // already appended is durable; duplicates by the reclaimer merge
          // away.
          cell->lost = true;
          cell->lease.abandon();
        }
      }
    }
  });
  auto stop_heartbeat = [&] {
    {
      const std::lock_guard<std::mutex> lock(mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
  };

  try {
    for (;;) {
      std::fill(claimed.begin(), claimed.end(), 0);
      run_block_pool(threads, {}, order.size() * total_blocks, run_unit, sweep);
      {
        const std::lock_guard<std::mutex> lock(mu);
        held.clear();  // only cells whose lease was lost are left
      }
      if (all_durable(load_elastic_progress(spec, options.dir, &files))) break;
      // Every incomplete cell is leased by a live worker: poll until they
      // finish (or die and their leases age out).
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<std::int64_t>(options.poll_seconds * 1000)));
    }
  } catch (const ElasticAborted&) {
    // Simulated hard crash: the lease files stay behind.
    stop_heartbeat();
    for (auto& [idx, cell] : held) cell->lease.abandon();
    throw;
  } catch (...) {
    stop_heartbeat();
    throw;  // held leases release as `held` unwinds; appended blocks are durable
  }
  stop_heartbeat();
  // Final fold: finalizes every completed-by-log cell (with the runners of
  // the cells this worker finished) and leaves one snapshot that IS the
  // campaign (merge reads it straight off).
  compact(nullptr);
  res.campaign_complete = true;
  return res;
}

}  // namespace ftdb::campaign::elastic
