// serve_read and serve_churn: one ReconfigurationService on B_{2,12} with
// k = 8 spares, driven by closed-loop reader threads (256-query next_hops
// waves) and, for serve_churn, one writer sending fault/repair events back to
// back. See perfbench/README.md for the workload definitions.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/online.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "sim/router.hpp"
#include "topology/debruijn.hpp"

namespace perfbench {
namespace {

using ftdb::FaultKind;
using ftdb::Graph;
using ftdb::NodeId;
using ftdb::serve::MutationStatus;
using ftdb::serve::ReconfigurationService;
using ftdb::serve::ServeConfig;

constexpr ftdb::DeBruijnParams kShape{.base = 2, .digits = 12};
constexpr unsigned kSpares = 8;
constexpr std::size_t kWave = 256;          // queries per next_hops call
constexpr std::size_t kReaders = 2;
constexpr std::size_t kPoolWaves = 128;     // distinct waves each reader cycles through
constexpr std::uint64_t kSampleEvery = 61;  // every 61st wave is kept for the oracle check
constexpr std::size_t kMaxSamples = 256;    // kept waves per reader and phase
// Latency slots per reader and phase: enough for 20 s of 38 us waves. The
// bookkeeping is allocated and touched before the timed window, so its share
// of peak RSS does not depend on how many waves a run manages.
constexpr std::size_t kLatencySlots = std::size_t{1} << 19;
constexpr std::size_t kCheckedPerWave = 64; // queries of a kept wave checked against BFS
constexpr double kWarmupSeconds = 0.5;

// Churn stream: a rolling window of 4 outstanding faults. One round repairs
// the oldest fault and faults another node, 60 times with fresh nodes and 4
// times re-faulting the initial set, so each round ends in the state it began
// in and every round replays the identical 128 mutations.
constexpr std::size_t kWindow = 4;
constexpr std::size_t kFreshPerRound = 60;

enum Phase : int { kWarm = 0, kTimed = 1, kTraced = 2, kStop = 3 };

ServeConfig make_config(const std::string& journal_path) {
  return {.family = ftdb::serve::Family::kDeBruijn,
          .base = kShape.base,
          .digits = kShape.digits,
          .spares = kSpares,
          .journal_path = journal_path,
          .fsync_journal = false};
}

struct Wave {
  std::vector<NodeId> dests;
  std::vector<NodeId> nodes;
};

/// Destination rank r drawn with probability proportional to 1 / (r + 1);
/// rank r is node r, so node 0 is the hottest destination.
class ZipfDestinations {
 public:
  explicit ZipfDestinations(std::size_t n) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) cdf_[r] = (sum += 1.0 / static_cast<double>(r + 1));
    for (double& c : cdf_) c /= sum;
  }
  NodeId draw(InputRng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.unit());
    return static_cast<NodeId>(std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

std::vector<Wave> make_waves(std::size_t n, bool zipf, std::uint64_t seed) {
  InputRng rng(seed);
  const ZipfDestinations zipf_dest(n);
  std::vector<Wave> pool(kPoolWaves);
  for (Wave& w : pool) {
    w.dests.resize(kWave);
    w.nodes.resize(kWave);
    for (std::size_t i = 0; i < kWave; ++i) {
      w.dests[i] = zipf ? zipf_dest.draw(rng) : static_cast<NodeId>(rng.below(n));
      w.nodes[i] = static_cast<NodeId>(rng.below(n));
    }
  }
  return pool;
}

/// A kept wave: which pool wave it was, the epoch that served it, and the
/// physical hops the service returned.
struct Sample {
  std::uint32_t wave = 0;
  std::uint64_t epoch = 0;
  std::vector<NodeId> out;
};

struct WaveLog {
  void allocate() {
    latency_us.assign(kLatencySlots, 0.0f);
    samples.assign(kMaxSamples, Sample{0, 0, std::vector<NodeId>(kWave)});
  }
  std::vector<double> latencies() const {
    return {latency_us.begin(),
            latency_us.begin() + static_cast<std::ptrdiff_t>(std::min(waves, kLatencySlots))};
  }

  std::vector<float> latency_us;  // the first min(waves, kLatencySlots) are used
  std::size_t waves = 0;
  std::uint64_t queries = 0;
  std::uint64_t skipped = 0;  // kept waves whose epoch changed in flight
  std::vector<Sample> samples;
  std::size_t kept = 0;  // samples[0, kept) are filled
};

struct ReaderState {
  std::array<WaveLog, 3> logs;  // indexed by Phase; kWarm is never recorded
  Tracer tracer;
  std::uint64_t replica_mismatches = 0;
  std::uint64_t distance_sink = 0;
  std::string error;
};

/// The traced read path's per-layer replicas: the same waves through a bare
/// logical-space router and through the topology distance kernel.
struct ReadReplica {
  std::unique_ptr<ftdb::sim::Router> router;
  const std::vector<NodeId>* phi = nullptr;  // the only epoch of serve_read
};

void reader_loop(const ReconfigurationService::Reader& reader, const std::vector<Wave>& pool,
                 const std::atomic<int>& phase, const ReadReplica* replica, ReaderState& st) {
  std::vector<NodeId> out(kWave);
  std::vector<NodeId> logical(kWave);
  try {
    for (std::uint64_t w = 0;; ++w) {
      const int p = phase.load(std::memory_order_acquire);
      if (p == kStop) break;
      const Wave& wave = pool[w % pool.size()];
      WaveLog& log = st.logs[p];
      const bool keep = p != kWarm && w % kSampleEvery == 0 && log.kept < kMaxSamples;
      const std::uint64_t epoch_before = keep ? reader.epoch_id() : 0;
      const bool traced = p == kTraced && replica != nullptr;
      const std::uint32_t span = traced ? st.tracer.begin("serve.next_hops", 0, w) : 0;
      const Clock::time_point t0 = Clock::now();
      reader.next_hops(wave.dests, wave.nodes, out);
      const Clock::time_point t1 = Clock::now();
      if (traced) {
        st.tracer.end(span);
        const std::uint32_t rm = st.tracer.begin("sim.route_many", span, w);
        replica->router->route_many(wave.dests, wave.nodes, logical);
        st.tracer.end(rm);
        const std::uint32_t td = st.tracer.begin("topology.distance", 0, w);
        for (std::size_t i = 0; i < kWave; ++i) {
          st.distance_sink += ftdb::debruijn_distance(kShape, wave.nodes[i], wave.dests[i]);
        }
        st.tracer.end(td);
        for (std::size_t i = 0; i < kWave; ++i) {
          if ((*replica->phi)[logical[i]] != out[i]) ++st.replica_mismatches;
        }
      }
      if (p == kWarm) continue;
      if (log.waves < kLatencySlots) {
        log.latency_us[log.waves] = static_cast<float>(seconds_between(t0, t1) * 1e6);
      }
      ++log.waves;
      log.queries += kWave;
      if (keep) {
        if (reader.epoch_id() != epoch_before) {
          ++log.skipped;
        } else {
          Sample& sample = log.samples[log.kept++];
          sample.wave = static_cast<std::uint32_t>(w % pool.size());
          sample.epoch = epoch_before;
          std::copy(out.begin(), out.end(), sample.out.begin());
        }
      }
    }
  } catch (const std::exception& e) {
    st.error = e.what();
  }
}

/// BFS oracle over the healthy target: the canonical hop from `node` towards
/// `dest` is the lowest-id neighbour strictly closer to dest.
class HopOracle {
 public:
  explicit HopOracle(const Graph& target) : g_(target) {}

  NodeId logical_hop(NodeId dest, NodeId node) {
    if (node == dest) return dest;
    const std::vector<std::uint8_t>& dist = row(dest);
    for (const NodeId v : g_.neighbors(node)) {  // adjacency lists are sorted
      if (dist[v] + 1 == dist[node]) return v;
    }
    return ftdb::kInvalidNode;
  }

 private:
  const std::vector<std::uint8_t>& row(NodeId dest) {
    auto it = rows_.find(dest);
    if (it != rows_.end()) return it->second;
    std::vector<std::uint8_t> dist(g_.num_nodes(), 0xFF);
    std::vector<NodeId> queue{dest};
    dist[dest] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const NodeId v : g_.neighbors(u)) {
        if (dist[v] == 0xFF) {
          dist[v] = static_cast<std::uint8_t>(dist[u] + 1);
          queue.push_back(v);
        }
      }
    }
    return rows_.emplace(dest, std::move(dist)).first->second;
  }

  const Graph& g_;
  std::unordered_map<NodeId, std::vector<std::uint8_t>> rows_;
};

/// Checks every kept wave of `logs` against the oracle under the phi of the
/// epoch that served it. Returns the number of queries checked.
std::uint64_t check_samples(std::vector<WaveLog*> logs, const std::vector<std::vector<Wave>>& pools,
                            const std::map<std::uint64_t, const std::vector<NodeId>*>& phis,
                            const Graph& target, bool plant_hop, Outcome& out) {
  HopOracle oracle(target);
  std::uint64_t checked = 0;
  bool planted = false;
  for (std::size_t r = 0; r < logs.size(); ++r) {
    for (std::size_t k = 0; k < logs[r]->kept; ++k) {
      Sample& s = logs[r]->samples[k];
      if (plant_hop && !planted) {
        s.out[0] ^= 1;  // self-test: one wrong hop must fail the run
        planted = true;
      }
      const auto phi = phis.find(s.epoch);
      if (phi == phis.end()) {
        out.fail("no recorded phi for epoch " + std::to_string(s.epoch), kCheckedPerWave);
        continue;
      }
      const Wave& wave = pools[r % pools.size()][s.wave];
      for (std::size_t j = 0; j < kCheckedPerWave; ++j) {
        const std::size_t i = j * (kWave / kCheckedPerWave);
        const NodeId hop = oracle.logical_hop(wave.dests[i], wave.nodes[i]);
        const NodeId want = hop == ftdb::kInvalidNode ? hop : (*phi->second)[hop];
        ++checked;
        if (s.out[i] != want) {
          out.fail("wrong hop: epoch " + std::to_string(s.epoch) + " dest " +
                   std::to_string(wave.dests[i]) + " node " + std::to_string(wave.nodes[i]) +
                   " got " + std::to_string(s.out[i]) + " want " + std::to_string(want));
        }
      }
    }
  }
  return checked;
}

std::string journal_path(const Options& options, const char* tag) {
  return (std::filesystem::path(options.scratch) /
          (options.workload + "-" + tag + "-" + std::to_string(::getpid()) + ".journal"))
      .string();
}

/// Builds the service `setup_reps` times (setup_s is the median) and keeps
/// the last one.
std::unique_ptr<ReconfigurationService> build_service(const ServeConfig& config, double& setup_s) {
  std::unique_ptr<ReconfigurationService> service;
  setup_s = median_setup_seconds(3, 0.0, [&] {
    service.reset();
    if (!config.journal_path.empty()) std::filesystem::remove(config.journal_path);
    service = std::make_unique<ReconfigurationService>(config);
  });
  return service;
}

/// Applies the initial faults (setup, untimed) and checks their statuses.
void apply_initial_faults(ReconfigurationService& service, const std::vector<NodeId>& faults,
                          bool plant_status, Outcome& out) {
  for (std::size_t i = 0; i < faults.size(); ++i) {
    // Self-test: expecting the wrong status for the first event must fail the run.
    const MutationStatus want =
        plant_status && i == 0 ? MutationStatus::kRedundant : MutationStatus::kAccepted;
    const MutationStatus got = service.fault({FaultKind::kNode, faults[i], 0});
    ++out.attempted;
    if (got != want) {
      out.fail(std::string("setup fault of node ") + std::to_string(faults[i]) + " returned " +
               ftdb::serve::mutation_status_name(got) + ", expected " +
               ftdb::serve::mutation_status_name(want));
    }
  }
}

std::vector<NodeId> distinct_nodes(std::size_t count, std::size_t universe, InputRng& rng) {
  std::vector<NodeId> nodes;
  while (nodes.size() < count) {
    const auto v = static_cast<NodeId>(rng.below(universe));
    if (std::find(nodes.begin(), nodes.end(), v) == nodes.end()) nodes.push_back(v);
  }
  return nodes;
}

double p(std::vector<double> values, double q) { return quantile(values, q); }

std::vector<double> merged_latency(const std::vector<ReaderState>& readers, Phase phase) {
  std::vector<double> all;
  for (const ReaderState& st : readers) {
    const std::vector<double> some = st.logs[phase].latencies();
    all.insert(all.end(), some.begin(), some.end());
  }
  return all;
}

std::uint64_t queries(const std::vector<ReaderState>& readers, Phase phase) {
  std::uint64_t q = 0;
  for (const ReaderState& st : readers) q += st.logs[phase].queries;
  return q;
}

/// Reader threads, registered before any of them (or the writer) starts.
class ReaderPool {
 public:
  ReaderPool(ReconfigurationService& service, const std::vector<std::vector<Wave>>& pools,
             const ReadReplica* replica, bool traced)
      : states_(kReaders) {
    for (ReaderState& st : states_) {
      st.logs[kTimed].allocate();
      if (traced) st.logs[kTraced].allocate();
    }
    std::vector<ReconfigurationService::Reader> handles;
    for (std::size_t r = 0; r < kReaders; ++r) handles.push_back(service.reader());
    for (std::size_t r = 0; r < kReaders; ++r) states_[r].tracer = Tracer((r + 1) << 28);
    try {
      for (std::size_t r = 0; r < kReaders; ++r) {
        threads_.emplace_back([this, &pools, replica, r, h = std::move(handles[r])] {
          reader_loop(h, pools[r], phase_, replica, states_[r]);
        });
      }
    } catch (...) {
      stop();  // the destructor does not run when the constructor throws
      throw;
    }
  }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;
  ~ReaderPool() { stop(); }

  void set_phase(Phase p) { phase_.store(p, std::memory_order_release); }
  void stop() {
    set_phase(kStop);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  std::vector<ReaderState>& states() { return states_; }

 private:
  std::atomic<int> phase_{kWarm};
  std::vector<ReaderState> states_;
  std::vector<std::thread> threads_;  // declared last: joined before the states go away
};

void report_reader_errors(std::vector<ReaderState>& readers, Outcome& out) {
  for (const ReaderState& st : readers) {
    if (!st.error.empty()) out.fail("reader threw: " + st.error);
  }
}

void note_samples(std::vector<ReaderState>& readers, std::uint64_t checked, Outcome& out) {
  std::uint64_t skipped = 0;
  for (const ReaderState& st : readers) {
    skipped += st.logs[kTimed].skipped + st.logs[kTraced].skipped;
  }
  out.note("checked " + std::to_string(checked) + " sampled answers against the BFS oracle; " +
           std::to_string(skipped) + " kept waves skipped because their epoch changed in flight");
}

}  // namespace

// ---- serve_read ----------------------------------------------------------------

Outcome run_serve_read(const Options& options) {
  Outcome out;
  double setup_s = 0.0;
  const ServeConfig config = make_config("");
  std::unique_ptr<ReconfigurationService> service = build_service(config, setup_s);
  const std::size_t n = service->num_logical_nodes();

  InputRng rng(stream_seed(options.seed, 1));
  apply_initial_faults(*service, distinct_nodes(2, n, rng), options.plant == "status", out);
  const std::shared_ptr<const ftdb::serve::Epoch> epoch = service->snapshot();
  const std::map<std::uint64_t, const std::vector<NodeId>*> phis{{epoch->id, &epoch->phi}};

  std::vector<std::vector<Wave>> pools;
  for (std::size_t r = 0; r < kReaders; ++r) {
    pools.push_back(make_waves(n, /*zipf=*/true, stream_seed(options.seed, 10 + r)));
  }
  ReadReplica replica{ftdb::sim::make_router(service->target()), &epoch->phi};

  ReaderPool pool(*service, pools, options.trace ? &replica : nullptr, options.trace);
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  const Clock::time_point start = Clock::now();
  pool.set_phase(kTimed);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(options.trace ? options.seconds / 2 : options.seconds));
  const double timed_s = seconds_between(start, Clock::now());
  const double rss = peak_rss_mib();
  if (options.trace) {
    pool.set_phase(kTraced);
    std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds / 2));
  }
  pool.stop();
  std::vector<ReaderState>& readers = pool.states();
  report_reader_errors(readers, out);

  const std::uint64_t timed_queries = queries(readers, kTimed);
  out.attempted += timed_queries + queries(readers, kTraced);
  const std::uint64_t checked =
      check_samples({&readers[0].logs[kTimed], &readers[1].logs[kTimed], &readers[0].logs[kTraced],
                     &readers[1].logs[kTraced]},
                    pools, phis, service->target(), options.plant == "hop", out);
  note_samples(readers, checked, out);

  const std::vector<double> waves = merged_latency(readers, kTimed);
  const double wave_p50 = p(waves, 0.5);
  char line[200];
  std::snprintf(line, sizeof line,
                "serve_read: %zu waves of %zu queries in %.2f s; wave p50 %.2f us, p99 %.2f us",
                waves.size(), kWave, timed_s, wave_p50, p(waves, 0.99));
  out.note(line);
  if (!options.trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("throughput_per_s", static_cast<double>(timed_queries) / timed_s, "1/s");
    out.metric("latency_p50_ms", wave_p50 / 1e3, "ms");
    return out;
  }

  Tracer all;
  std::uint64_t mismatches = 0;
  for (const ReaderState& st : readers) {
    all.absorb(st.tracer);
    mismatches += st.replica_mismatches;
  }
  if (mismatches != 0) {
    out.fail("route_many replica disagrees with next_hops on " + std::to_string(mismatches) +
                 " queries",
             mismatches);
  }
  dump_spans(all.spans(), options.scratch + "/spans-serve_read.tsv", out);
  const SpanSummary s = summarize(all.spans());
  const double per_query = 1.0 / static_cast<double>(kWave);
  const SpanTotals& next_hops = s["serve.next_hops"];
  out.metric("serve.next_hops_ns", next_hops.mean_ns() * per_query, "ns");
  out.metric("sim.route_many_ns", s["sim.route_many"].mean_ns() * per_query, "ns");
  out.metric("topology.distance_ns", s["topology.distance"].mean_ns() * per_query, "ns");
  out.metric("serve.translate_ns", next_hops.self_mean_ns() * per_query, "ns");
  out.metric("sim.route_cache_bytes",
             replica.router->backend() == ftdb::sim::RouterBackend::Implicit
                 ? static_cast<double>(ftdb::sim::ImplicitRouter::route_cache_bytes())
                 : static_cast<double>(replica.router->memory_bytes()),
             "bytes");
  out.metric("serve.wave_p50_us", wave_p50, "us");
  out.metric("serve.wave_p99_us", p(waves, 0.99), "us");
  const double traced_p50 = p(merged_latency(readers, kTraced), 0.5);
  out.metric("trace.overhead_frac", (traced_p50 - wave_p50) / wave_p50, "ratio");
  std::snprintf(line, sizeof line,
                "tracing overhead: traced wave p50 %.2f us - untraced %.2f us = %.2f us",
                traced_p50, wave_p50, traced_p50 - wave_p50);
  out.note(line);
  return out;
}

// ---- serve_churn ---------------------------------------------------------------

namespace {

struct Mutation {
  bool repair = false;
  NodeId node = 0;
};

/// One closed round of the churn stream starting (and ending) with
/// `initial` outstanding, oldest first. Fresh faults avoid the initial set so
/// it can be re-faulted at the end of the round; 1 in 8 of the round's
/// faults lands in the spare region [n, n + k).
std::vector<Mutation> make_round(const std::vector<NodeId>& initial, std::size_t n,
                                 InputRng& rng) {
  std::deque<NodeId> outstanding(initial.begin(), initial.end());
  std::vector<Mutation> round;
  std::size_t faults = 0;
  for (std::size_t step = 0; step < kFreshPerRound + kWindow; ++step) {
    round.push_back({true, outstanding.front()});
    outstanding.pop_front();
    NodeId node = 0;
    if (step >= kFreshPerRound) {
      node = initial[step - kFreshPerRound];
    } else {
      const bool spare = ++faults % 7 == 0;  // 8 of the round's 64 faults
      do {
        node = static_cast<NodeId>(spare ? n + rng.below(kSpares) : rng.below(n));
      } while (std::find(outstanding.begin(), outstanding.end(), node) != outstanding.end() ||
               std::find(initial.begin(), initial.end(), node) != initial.end());
    }
    round.push_back({false, node});
    outstanding.push_back(node);
  }
  return round;
}

/// The traced write path's per-layer replica: the same event stream through a
/// scratch Journal, a bare OnlineReconfigurator and a CompressedRouter that is
/// copied and patched exactly as the service does it.
struct WriteReplica {
  WriteReplica(const ServeConfig& config, const std::string& journal_path)
      : journal(journal_path, ftdb::serve::config_fingerprint(config), false),
        recon(ftdb::ft_debruijn_graph({.base = config.base, .digits = config.digits,
                                       .spares = config.spares}),
              ftdb::debruijn_graph(kShape)),
        router(std::make_shared<ftdb::sim::CompressedRouter>(ftdb::debruijn_graph(kShape))),
        n(ftdb::debruijn_num_nodes(kShape)) {}

  void apply(const Mutation& m, Tracer* tracer, std::uint32_t parent, std::uint64_t request) {
    auto span = [&](const char* name) { return tracer ? tracer->begin(name, parent, request) : 0; };
    auto done = [&](std::uint32_t id) {
      if (tracer) tracer->end(id);
    };
    std::uint32_t s = span("serve.journal_append");
    journal.append({m.repair ? ftdb::serve::JournalOp::kRepair : ftdb::serve::JournalOp::kFaultNode,
                    m.node, 0});
    done(s);
    s = span("ft.online_apply");
    if (m.repair) {
      recon.repair(m.node);
    } else {
      recon.apply({FaultKind::kNode, m.node, 0});
    }
    done(s);
    if (m.node >= n) return;  // spare-region events leave the bare router alone
    s = span("sim.router_copy");
    auto patched = std::make_shared<ftdb::sim::CompressedRouter>(*router);
    done(s);
    s = span("sim.router_patch");
    if (m.repair) {
      patched->retract_fault(m.node);
    } else {
      patched->apply_fault(m.node);
    }
    done(s);
    router = std::move(patched);
    exceptions_sum += static_cast<double>(router->stats().exception_entries);
    ++patches;
  }

  double mean_exceptions() const {
    return patches == 0 ? 0.0 : exceptions_sum / static_cast<double>(patches);
  }

  ftdb::serve::Journal journal;
  ftdb::OnlineReconfigurator recon;
  std::shared_ptr<const ftdb::sim::CompressedRouter> router;
  std::uint64_t n;
  double exceptions_sum = 0.0;
  std::uint64_t patches = 0;
};

MutationStatus expected_status(const Mutation& m) {
  return m.repair ? MutationStatus::kRepaired : MutationStatus::kAccepted;
}

struct WriterLog {
  std::vector<double> latency_ms;
  std::uint64_t rounds = 0;
  std::size_t epochs_live_max = 0;
};

}  // namespace

Outcome run_serve_churn(const Options& options) {
  Outcome out;
  double setup_s = 0.0;
  const std::string journal = journal_path(options, "service");
  const ServeConfig config = make_config(journal);
  std::unique_ptr<ReconfigurationService> service = build_service(config, setup_s);
  const std::size_t n = service->num_logical_nodes();

  InputRng rng(stream_seed(options.seed, 2));
  const std::vector<NodeId> initial = distinct_nodes(kWindow, n, rng);
  const std::vector<Mutation> round = make_round(initial, n, rng);
  apply_initial_faults(*service, initial, options.plant == "status", out);
  const std::uint64_t base_hash = service->state_hash();
  // The phi of every epoch, kept once per round position: every round passes
  // through the same states, so later rounds are checked against the first.
  const std::shared_ptr<const ftdb::serve::Epoch> initial_epoch = service->snapshot();
  std::vector<std::vector<NodeId>> round_phis(round.size());
  std::map<std::uint64_t, const std::vector<NodeId>*> phis{
      {initial_epoch->id, &initial_epoch->phi}};

  std::optional<WriteReplica> replica;
  const std::string replica_journal = journal_path(options, "replica");
  if (options.trace) {
    std::filesystem::remove(replica_journal);
    replica.emplace(config, replica_journal);
    for (const NodeId v : initial) replica->apply({false, v}, nullptr, 0, 0);
  }

  std::vector<std::vector<Wave>> pools;
  for (std::size_t r = 0; r < kReaders; ++r) {
    pools.push_back(make_waves(n, /*zipf=*/false, stream_seed(options.seed, 20 + r)));
  }
  ReaderPool pool(*service, pools, nullptr, options.trace);
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));

  Tracer tracer;
  std::uint64_t mutation_index = 0;
  auto record_phi = [&](std::size_t position) {
    const auto epoch = service->snapshot();
    std::vector<NodeId>& phi = round_phis[position];
    if (phi.empty()) {
      phi = epoch->phi;
    } else if (phi != epoch->phi) {
      out.fail("epoch " + std::to_string(epoch->id) + " phi differs from round position " +
                   std::to_string(position) + " of the first round",
               0);
    }
    phis.emplace(epoch->id, &phi);
  };
  // Sends whole rounds back to back until `seconds` have passed; returns the
  // elapsed time. Each call is timed alone; the epoch's phi is recorded after.
  auto write = [&](double seconds, WriterLog& log, bool traced) {
    const Clock::time_point start = Clock::now();
    while (log.rounds == 0 || seconds_between(start, Clock::now()) < seconds) {
      for (std::size_t position = 0; position < round.size(); ++position) {
        const Mutation& m = round[position];
        const std::uint64_t id = mutation_index++;
        const std::uint32_t span = traced ? tracer.begin("serve.mutation", 0, id) : 0;
        const Clock::time_point t0 = Clock::now();
        const MutationStatus got =
            m.repair ? service->repair(m.node) : service->fault({FaultKind::kNode, m.node, 0});
        const Clock::time_point t1 = Clock::now();
        if (traced) {
          tracer.end(span);
          replica->apply(m, &tracer, span, id);
          log.epochs_live_max = std::max(log.epochs_live_max, service->stats().epochs_live);
        }
        log.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
        ++out.attempted;
        if (got != expected_status(m)) {
          out.fail(std::string(m.repair ? "repair" : "fault") + " of node " +
                   std::to_string(m.node) + " returned " +
                   ftdb::serve::mutation_status_name(got) + ", expected " +
                   ftdb::serve::mutation_status_name(expected_status(m)));
        }
        record_phi(position);
      }
      ++log.rounds;
      if (service->state_hash() != base_hash) {
        out.fail("state after round " + std::to_string(log.rounds) +
                     " differs from the state the round started in",
                 0);
      }
    }
    return seconds_between(start, Clock::now());
  };

  WriterLog timed;
  WriterLog traced;
  pool.set_phase(kTimed);
  const double timed_s = write(options.trace ? options.seconds / 2 : options.seconds, timed, false);
  const double rss = peak_rss_mib();
  if (options.trace) {
    pool.set_phase(kTraced);
    write(options.seconds / 2, traced, true);
  }
  pool.stop();
  std::vector<ReaderState>& readers = pool.states();
  report_reader_errors(readers, out);
  const std::uint64_t timed_queries = queries(readers, kTimed);
  out.attempted += timed_queries + queries(readers, kTraced);

  const std::uint64_t checked =
      check_samples({&readers[0].logs[kTimed], &readers[1].logs[kTimed], &readers[0].logs[kTraced],
                     &readers[1].logs[kTraced]},
                    pools, phis, service->target(), options.plant == "hop", out);
  note_samples(readers, checked, out);
  const auto final_epoch = service->snapshot();
  if (final_epoch->phi != initial_epoch->phi) {
    out.fail("final phi differs from the initial state every round returns to", 0);
  }

  const double mutation_p50 = p(timed.latency_ms, 0.5);
  const std::vector<double> waves = merged_latency(readers, kTimed);
  char line[240];
  std::snprintf(line, sizeof line,
                "serve_churn: %zu mutations in %llu rounds over %.2f s; mutation p50 %.3f ms, "
                "p95 %.3f ms; %zu waves, wave p50 %.2f us, p99 %.2f us",
                timed.latency_ms.size(), static_cast<unsigned long long>(timed.rounds), timed_s,
                mutation_p50, p(timed.latency_ms, 0.95), waves.size(), p(waves, 0.5),
                p(waves, 0.99));
  out.note(line);
  if (!options.trace) {
    std::filesystem::remove(journal);
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("throughput_per_s", static_cast<double>(timed_queries) / timed_s, "1/s");
    out.metric("latency_p50_ms", mutation_p50, "ms");
    return out;
  }

  // Replica honesty: the replayed stages must land where the service did.
  const ReconfigurationService::ServiceStats stats = service->stats();
  const ftdb::sim::CompressedRouter::Stats bare = replica->router->stats();
  if (replica->recon.mapping() != final_epoch->phi) {
    out.fail("write replica phi differs from the service's final snapshot", 0);
  }
  if (bare.state_hash != stats.bare.state_hash ||
      bare.exception_entries != stats.bare.exception_entries ||
      bare.tracked_faults != stats.bare.tracked_faults) {
    out.fail("write replica router stats differ from the service's bare router", 0);
  }
  std::filesystem::remove(journal);
  std::filesystem::remove(replica_journal);

  dump_spans(tracer.spans(), options.scratch + "/spans-serve_churn.tsv", out);
  const SpanSummary s = summarize(tracer.spans());
  out.metric("serve.wave_p50_us", p(waves, 0.5), "us");
  out.metric("serve.wave_p99_us", p(waves, 0.99), "us");
  out.metric("serve.mutation_p50_ms", mutation_p50, "ms");
  out.metric("serve.mutation_p95_ms", p(timed.latency_ms, 0.95), "ms");
  out.metric("serve.journal_append_us", s["serve.journal_append"].mean_ns() / 1e3, "us");
  out.metric("ft.online_apply_us", s["ft.online_apply"].mean_ns() / 1e3, "us");
  out.metric("sim.router_copy_ms", s["sim.router_copy"].mean_ns() / 1e6, "ms");
  out.metric("sim.router_patch_ms", s["sim.router_patch"].mean_ns() / 1e6, "ms");
  out.metric("sim.router_exceptions", replica->mean_exceptions(), "count");
  out.metric("serve.publish_ms", s["serve.mutation"].self_mean_ns() / 1e6, "ms");
  out.metric("serve.epochs_live_max", static_cast<double>(traced.epochs_live_max), "count");
  out.metric("serve.journal_bytes", static_cast<double>(stats.journal_bytes), "bytes");
  const double traced_p50 = p(traced.latency_ms, 0.5);
  out.metric("trace.overhead_frac", (traced_p50 - mutation_p50) / mutation_p50, "ratio");
  std::snprintf(line, sizeof line,
                "tracing overhead: traced mutation p50 %.3f ms - untraced %.3f ms = %.3f ms",
                traced_p50, mutation_p50, traced_p50 - mutation_p50);
  out.note(line);
  return out;
}

}  // namespace perfbench
