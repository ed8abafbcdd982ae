// Always-on reconfiguration service (ROADMAP item 1).
//
// A long-lived process wrapper around one fault-tolerant machine: it owns an
// OnlineReconfigurator (the Theorem 1/2 embedding state), consumes a stream
// of fault/repair events, and answers routing queries *concurrently* with
// reconfiguration. Three mechanisms make "always-on" real:
//
//  * Incremental router repair. The degraded-machine view (the target shape
//    minus failed logical nodes — the paper's bare-machine baseline) is
//    served by a shape-delta CompressedRouter that is *patched* per event
//    (CompressedRouter::apply_fault / retract_fault, ~f*h new exception
//    entries per fault) instead of rebuilt with a BFS per destination. The
//    patched state is canonical, so tests compare it hash-for-hash against a
//    from-scratch build.
//
//  * Epoch-based publication. Every accepted mutation builds a fresh
//    immutable Epoch (embedding phi, retired set, degraded flag, bare
//    router) off to the side and publishes it with one atomic pointer store.
//    Readers pin the head pointer into a per-reader slot (store, then
//    re-validate the head — a pointer-pinning RCU variant), so queries never
//    take the writer lock and never block behind a reconfiguration in
//    progress. Retired epochs are reclaimed only when no slot pins them.
//
//  * Crash recovery. Every validated event is appended to a write-ahead
//    Journal (serve/journal.hpp) before it is applied. Because the
//    reconfiguration pipeline is deterministic and the incremental router
//    patches are canonical, replaying the journal reproduces the pre-crash
//    state exactly (state_hash-identical). `checkpoint()` compacts the log
//    to one record per outstanding fault.
//
// Degraded mode: when the spare budget is exhausted (spares_remaining == 0),
// further faults are refused with MutationStatus::kBudgetExhausted — the
// machine cannot reconfigure past its design tolerance — but queries keep
// flowing on the last good epoch and repairs still apply (and exit degraded
// mode). The refusal is journaled, so a replayed log converges to the same
// refusals and the same state.
//
// Query surfaces (both per-epoch-consistent):
//  * FT surface — logical-space routes on the *healthy* target shape,
//    translated to physical node ids through the current embedding phi.
//    Under the Theorem 1/2 invariant the translation is dilation-1: every
//    logical hop is a healthy physical link.
//  * Bare surface — routes on the degraded target shape itself (failed
//    logical nodes removed, no spares), the paper's no-reconfiguration
//    baseline, served by the incrementally-patched CompressedRouter.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ft/online.hpp"
#include "graph/graph.hpp"
#include "serve/journal.hpp"
#include "sim/router.hpp"

namespace ftdb::serve {

enum class Family : std::uint8_t { kDeBruijn = 0, kShuffleExchange = 1 };

struct ServeConfig {
  Family family = Family::kDeBruijn;
  std::uint64_t base = 2;     // de Bruijn base m (ignored for shuffle-exchange)
  unsigned digits = 4;        // h: N = base^digits (2^digits for SE)
  unsigned spares = 2;        // k: the spare budget
  std::string journal_path;   // empty = volatile service (no crash recovery)
  bool fsync_journal = true;  // fsync per append (tests may disable for speed)
};

/// Stable 64-bit digest of the machine shape; stored in the journal header so
/// a log can never be replayed against a differently-shaped service.
std::uint64_t config_fingerprint(const ServeConfig& config);

enum class MutationStatus : std::uint8_t {
  kAccepted,         // fault applied; machine reconfigured, new epoch live
  kRedundant,        // fault already covered by a retired node; no-op
  kBudgetExhausted,  // degraded mode: refused, state unchanged
  kRepaired,         // repair applied; new epoch live
  kNotRetired,       // repair of a healthy node; no-op
};

const char* mutation_status_name(MutationStatus status);

/// One immutable published state of the machine. Readers obtain it via
/// Reader pinning (wait-free queries) or ReconfigurationService::snapshot()
/// (shared ownership, writer lock).
struct Epoch {
  std::uint64_t id = 0;            // session-local sequence number
  std::vector<NodeId> phi;         // logical -> physical embedding
  std::vector<NodeId> retired;     // retired physical nodes, sorted
  bool degraded = false;           // spare budget exhausted
  std::shared_ptr<const sim::CompressedRouter> bare;  // degraded-shape router
};

class ReconfigurationService {
 public:
  static constexpr std::size_t kMaxReaders = 64;

  /// Builds the machine and, when `config.journal_path` is set, replays any
  /// existing journal to the pre-crash state. Throws std::invalid_argument
  /// on a bad config and std::runtime_error on journal corruption/mismatch.
  explicit ReconfigurationService(const ServeConfig& config);
  ~ReconfigurationService();

  ReconfigurationService(const ReconfigurationService&) = delete;
  ReconfigurationService& operator=(const ReconfigurationService&) = delete;

  // ---- mutation surface (serialized; concurrent with readers) ----

  /// Journals and applies one fault event. Throws std::out_of_range /
  /// std::invalid_argument for malformed events (never journaled).
  MutationStatus fault(const FaultEvent& event);

  /// Journals and applies a repair of `node`.
  MutationStatus repair(NodeId node);

  /// Compacts the journal to one fault record per outstanding fault.
  /// State (and state_hash) are unchanged. No-op for a volatile service.
  void checkpoint();

  // ---- query surface ----

  /// A registered wait-free query handle. Queries pin the current epoch for
  /// their duration, so each answer is consistent with exactly one published
  /// state even while the writer is mid-mutation. Create one per thread.
  class Reader {
   public:
    Reader(Reader&& other) noexcept;
    Reader& operator=(Reader&&) = delete;
    Reader(const Reader&) = delete;
    ~Reader();

    std::uint64_t epoch_id() const;
    bool degraded() const;

    /// FT surface: physical id of the next hop towards logical `dest` from
    /// logical `node` (phi of the canonical healthy-shape hop).
    NodeId next_hop(NodeId dest, NodeId node) const;

    /// Batched FT surface: out[i] = next_hop(dests[i], nodes[i]) resolved
    /// under ONE epoch pin and one Router::route_many call, so a whole
    /// forwarding wave shares the implicit backend's incremental state and
    /// sees a single consistent embedding.
    void next_hops(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                   std::span<NodeId> out) const;

    /// FT surface: full physical path for logical from -> dest (inclusive).
    std::vector<NodeId> route(NodeId from, NodeId dest) const;

    /// Bare surface: canonical next hop on the degraded target shape, or
    /// kInvalidNode when dest is unreachable around the faults.
    NodeId bare_next_hop(NodeId dest, NodeId node) const;

    /// Bare surface: full path on the degraded shape; empty if unreachable.
    std::vector<NodeId> bare_route(NodeId from, NodeId dest) const;

   private:
    friend class ReconfigurationService;
    Reader(ReconfigurationService* service, std::size_t slot)
        : service_(service), slot_(slot) {}

    const Epoch* pin() const;
    void unpin() const;

    ReconfigurationService* service_;
    std::size_t slot_;
  };

  /// Registers a reader slot (throws std::runtime_error when kMaxReaders are
  /// live). Lock-free: it never waits for the writer. The Reader unregisters
  /// on destruction.
  Reader reader();

  /// Shared ownership of the current epoch (takes the writer lock; for
  /// tests/tools, not the hot query path).
  std::shared_ptr<const Epoch> snapshot() const;

  // ---- introspection ----

  struct ServiceStats {
    std::uint64_t epoch = 0;
    std::size_t epochs_live = 0;  // head + not-yet-reclaimed retired epochs
    std::size_t faults_outstanding = 0;
    std::size_t spares_remaining = 0;
    std::size_t spare_budget = 0;
    bool degraded = false;
    std::size_t journal_records = 0;
    std::size_t journal_bytes = 0;
    std::size_t replayed_events = 0;  // recovered from the journal at startup
    sim::CompressedRouter::Stats bare;
  };
  ServiceStats stats() const;

  /// Deterministic digest of the replay-relevant state: retired set, phi,
  /// degraded flag, and the bare router's canonical state. Session-local
  /// epoch ids are deliberately excluded, so a restarted+replayed (or
  /// checkpoint-compacted) service hashes identically.
  std::uint64_t state_hash() const;

  std::size_t num_logical_nodes() const { return target_.num_nodes(); }
  std::size_t num_physical_nodes() const { return num_physical_; }
  std::size_t replayed_events() const { return replayed_; }
  const Graph& target() const { return target_; }
  const ServeConfig& config() const { return config_; }

 private:
  MutationStatus apply_event(const FaultEvent& event, bool journal);
  MutationStatus apply_repair(NodeId node, bool journal);
  void publish(std::shared_ptr<const Epoch> next);  // writer lock held
  void sweep_retired_epochs() const;                // writer lock held
  std::shared_ptr<const Epoch> build_epoch(
      std::shared_ptr<const sim::CompressedRouter> bare);  // writer lock held

  ServeConfig config_;
  Graph target_;
  std::size_t num_physical_ = 0;
  std::unique_ptr<const sim::Router> healthy_;  // immutable logical-space router
  std::optional<Journal> journal_;
  std::size_t replayed_ = 0;

  mutable std::mutex mu_;  // serializes mutations + snapshot/stats
  OnlineReconfigurator recon_;
  std::uint64_t epoch_counter_ = 0;
  std::shared_ptr<const Epoch> head_owner_;
  // Swept from publish() and from the lock-taking read paths (snapshot/stats),
  // so an epoch unpinned after the last mutation is still reclaimed; mutable
  // lets the const read paths run the sweep.
  mutable std::vector<std::shared_ptr<const Epoch>> retired_epochs_;

  std::atomic<const Epoch*> head_{nullptr};
  std::array<std::atomic<const Epoch*>, kMaxReaders> pinned_{};
  std::array<std::atomic<bool>, kMaxReaders> slot_used_{};
};

}  // namespace ftdb::serve
