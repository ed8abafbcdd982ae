// Elastic campaign service: workers join and leave a running campaign at
// will, coordinating only through a shared checkpoint directory.
//
// Directory layout (everything under one `--elastic DIR`):
//
//   spec.json            canonical spec echo, written atomically by the first
//                        worker; joiners verify its fingerprint against their
//                        own spec before touching anything else
//   leases/cell-<i>.lease   one lease per grid cell (campaign/elastic/lease.hpp)
//   leases/compact.lease    serializes checkpoint compaction
//   logs/<worker>.blk    per-worker append-only block log
//                        (campaign/elastic/blocklog.hpp)
//   compacted.ckpt       "ftdb-campaign-checkpoint-v2" snapshot the logs fold
//                        into; crash replay is bounded by the blocks appended
//                        since the last compaction
//
// Workers lease whole cells — expensive cells first, by predicted_cell_cost,
// so the campaign's tail stays short — run the cells' not-yet-durable trial
// blocks on the block pool (run_block_pool), and append each block to their
// own log before anything references it. A worker keeps its pool full: while
// its held cells have fewer unstarted blocks than threads, it claims more
// cells, and it compacts at most once per such claim sweep. A worker that
// dies mid-cell leaves its lease behind; the next claimant reclaims it after
// the TTL — or at once when it runs under the dead worker's id — and re-runs
// only the blocks the dead worker never made durable. Because every trial's
// randomness is counter-based, any block double-computed in a lease race is
// byte-identical, and merges dedupe on (cell, block) — so the final report
// of any elastic history is byte-identical to a serial run of the same spec.
//
// This is the one durable campaign path: a resumable single-machine run is
// one worker with a fixed --worker-id, and static sharding is one directory
// per cell filter (ElasticOptions::cells) merged by merge_elastic.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/elastic/blocklog.hpp"
#include "campaign/runner.hpp"

namespace ftdb::campaign::elastic {

struct ElasticOptions {
  std::string dir;        ///< shared checkpoint directory (required)
  /// Unique per live worker; empty = "<host>-<pid>". A restarted worker
  /// with the same id reclaims the leases it left behind at once. Two live
  /// processes must not share an id: they would share logs/<id>.blk.
  std::string worker_id;
  /// Threads running trial blocks of the held cells; 0 = hardware.
  unsigned threads = 0;
  /// The cells this worker may claim (slice I of N); the default is all.
  ShardSpec cells;
  /// Lease staleness horizon. A worker heartbeats at ttl/3; a lease whose
  /// heartbeat is older than its TTL is reclaimed by the next claimant.
  std::uint64_t lease_ttl_seconds = 30;
  /// Sleep between claim sweeps when every incomplete cell is leased out.
  double poll_seconds = 0.5;
  /// Crash-simulation hook: once this many blocks have been appended, stop
  /// WITHOUT releasing the held leases (the on-disk state a hard-killed
  /// worker leaves) and throw ElasticAborted. 0 disables.
  std::uint64_t stop_after_blocks = 0;
  bool fsync = true;  ///< fsync block-log appends (tests may disable)
  std::ostream* progress = nullptr;  ///< optional one-line-per-cell sink
};

struct ElasticResult {
  std::uint64_t blocks_run = 0;        ///< blocks this worker computed and appended
  std::uint64_t blocks_skipped = 0;    ///< blocks of leased cells already durable
  std::uint64_t cells_leased = 0;
  std::uint64_t leases_reclaimed = 0;  ///< stale leases swept while claiming
  std::uint64_t max_cells_held = 0;    ///< most cells held at once (after a claim sweep)
  bool campaign_complete = false;      ///< every cell of options.cells durable when we left
};

/// Thrown by run_elastic_worker when options.stop_after_blocks fired. The
/// held leases are deliberately NOT released — this simulates a hard crash.
struct ElasticAborted : std::runtime_error {
  explicit ElasticAborted(std::uint64_t blocks)
      : std::runtime_error("elastic: stopped after " + std::to_string(blocks) +
                           " blocks (stop_after_blocks hook)"),
        blocks_completed(blocks) {}
  std::uint64_t blocks_completed = 0;
};

/// Creates the directory layout and the canonical spec.json, or verifies an
/// existing spec.json's fingerprint. Throws std::runtime_error when the
/// directory already hosts a different campaign.
void ensure_elastic_dir(const ScenarioSpec& spec, const std::string& dir);

/// Reads the spec.json of an existing elastic directory.
ScenarioSpec load_elastic_spec(const std::string& dir);

/// Durable progress of the whole campaign: compacted checkpoint + every
/// worker log, deduped by (cell, block) and drained into per-cell prefixes.
struct ElasticProgress {
  /// Index-aligned with expand_grid(spec). prefix_blocks == num_blocks means
  /// the cell's trials are all durable.
  std::vector<CellProgress> cells;
  /// Whether the cell's prefix carries finalized metadata (labels, analytic
  /// columns) — true only for complete cells folded by compaction.
  std::vector<char> finalized;
  std::uint64_t durable_blocks = 0;  ///< distinct durable blocks, all cells
};

/// Parses of an elastic directory's compacted.ckpt and worker logs, kept
/// between load_elastic_progress calls so that a worker's sweeps re-parse
/// only the files that changed. A file is re-parsed when its stamp — device,
/// inode, size and modification time, taken before the read — differs from
/// the cached parse's. Logs only grow by appends, and every rewrite (a
/// compaction, a log's truncate_all) renames a new inode into place, so an
/// equal stamp means equal bytes; taking the stamp first means a write racing
/// the read can only make the next stamp differ, never hide a change. One
/// cache per worker; not thread-safe.
class ProgressCache {
 public:
  /// The parsed checkpoint at `path`, or nullptr when there is none.
  const Checkpoint* checkpoint(const std::string& path);
  /// The records of the block log at `path` (BlockLog::read).
  const std::vector<BlockRecord>& log(const std::string& path, std::uint64_t fingerprint);
  /// Files parsed so far (cache misses).
  std::uint64_t parses() const { return parses_; }

 private:
  struct Stamp {
    std::uint64_t dev = 0;
    std::uint64_t ino = 0;
    std::uint64_t size = 0;
    std::int64_t mtime_ns = 0;
    bool operator==(const Stamp&) const = default;
  };
  static std::optional<Stamp> stamp_of(const std::string& path);

  std::optional<Stamp> ckpt_stamp_;
  std::optional<Checkpoint> ckpt_;
  std::map<std::string, std::pair<Stamp, std::vector<BlockRecord>>> logs_;
  std::uint64_t parses_ = 0;
};

/// Loads and validates the directory's durable progress. Tolerates torn log
/// tails (live appends elsewhere); throws on structural corruption or a
/// fingerprint mismatch. With a `cache`, unchanged files are not re-parsed.
ElasticProgress load_elastic_progress(const ScenarioSpec& spec, const std::string& dir,
                                      ProgressCache* cache = nullptr);

/// Runners already built for some cells, by grid index.
using CellRunners = std::map<std::size_t, const CellRunner*>;

/// Folds every log into compacted.ckpt (finalizing cells that completed —
/// with the runner from `runners` when there is one, else a fresh one),
/// then empties `own_log` (whose records are now in the checkpoint). Other
/// workers' logs are never truncated — they compact their own. Serialized by
/// leases/compact.lease; returns false (doing nothing) when another worker
/// holds it. `own_log` may be null (merge-time compaction). When `folded` is
/// given it receives the progress the new snapshot holds. `cache` is handed
/// to load_elastic_progress.
bool compact_elastic_dir(const ScenarioSpec& spec, const std::string& dir,
                         const std::string& worker_id, BlockLog* own_log,
                         std::uint64_t lease_ttl_seconds, bool fsync,
                         const CellRunners& runners = {},
                         ElasticProgress* folded = nullptr, ProgressCache* cache = nullptr);

/// Joins the elastic campaign at `options.dir` and works until every cell of
/// `options.cells` is durable (when nothing is claimable and someone else
/// holds the rest, it keeps polling until they complete). Throws
/// ElasticAborted when the crash hook fires, std::runtime_error on unusable
/// specs or a directory belonging to a different campaign.
ElasticResult run_elastic_worker(const ScenarioSpec& spec, const ElasticOptions& options);

}  // namespace ftdb::campaign::elastic
