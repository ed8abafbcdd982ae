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

/// Loads and validates the directory's durable progress. Tolerates torn log
/// tails (live appends elsewhere); throws on structural corruption or a
/// fingerprint mismatch.
ElasticProgress load_elastic_progress(const ScenarioSpec& spec, const std::string& dir);

/// Runners already built for some cells, by grid index.
using CellRunners = std::map<std::size_t, const CellRunner*>;

/// Folds every log into compacted.ckpt (finalizing cells that completed —
/// with the runner from `runners` when there is one, else a fresh one),
/// then empties `own_log` (whose records are now in the checkpoint). Other
/// workers' logs are never truncated — they compact their own. Serialized by
/// leases/compact.lease; returns false (doing nothing) when another worker
/// holds it. `own_log` may be null (merge-time compaction). When `folded` is
/// given it receives the progress the new snapshot holds.
bool compact_elastic_dir(const ScenarioSpec& spec, const std::string& dir,
                         const std::string& worker_id, BlockLog* own_log,
                         std::uint64_t lease_ttl_seconds, bool fsync,
                         const CellRunners& runners = {},
                         ElasticProgress* folded = nullptr);

/// Joins the elastic campaign at `options.dir` and works until every cell of
/// `options.cells` is durable (when nothing is claimable and someone else
/// holds the rest, it keeps polling until they complete). Throws
/// ElasticAborted when the crash hook fires, std::runtime_error on unusable
/// specs or a directory belonging to a different campaign.
ElasticResult run_elastic_worker(const ScenarioSpec& spec, const ElasticOptions& options);

}  // namespace ftdb::campaign::elastic
