// The always-on reconfiguration service: query surfaces vs the embedding
// pipeline, incremental-vs-batch state identity, journal recovery (including
// torn tails, fingerprint mismatch, and checkpoint compaction), degraded
// mode, and epoch reclamation. The long randomized property test drives 500+
// mixed events with a batch-rebuild oracle every 50th event and a simulated
// kill + replay mid-stream.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ft/ft_debruijn.hpp"
#include "ft/online.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "sim/router.hpp"
#include "topology/debruijn.hpp"

namespace ftdb::serve {
namespace {

class TempPath {
 public:
  explicit TempPath(const std::string& tag)
      : path_(::testing::TempDir() + "ftdb_serve_" + tag + "_" +
              std::to_string(::getpid()) + ".jrn") {
    std::remove(path_.c_str());
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

ServeConfig db_config(unsigned h, unsigned k, const std::string& journal = "") {
  ServeConfig config;
  config.family = Family::kDeBruijn;
  config.base = 2;
  config.digits = h;
  config.spares = k;
  config.journal_path = journal;
  config.fsync_journal = false;  // keep the suites fast; fsync is I/O-only
  return config;
}

/// Batch oracle for the degraded surface: a from-scratch CompressedRouter
/// over the target shape with the retired-in-[0,N) nodes' edges removed.
sim::CompressedRouter scratch_bare(const Graph& target, const std::vector<NodeId>& retired) {
  std::vector<bool> dead(target.num_nodes(), false);
  for (const NodeId r : retired) {
    if (r < target.num_nodes()) dead[r] = true;
  }
  GraphBuilder b(target.num_nodes());
  for (NodeId u = 0; u < target.num_nodes(); ++u) {
    if (dead[u]) continue;
    for (const NodeId w : target.neighbors(u)) {
      if (u < w && !dead[w]) b.add_edge(u, w);
    }
  }
  return sim::CompressedRouter(b.build());
}

/// Full agreement of the service's published state with a batch rebuild from
/// the same event history: embedding, retired set, bare-router canonical
/// state, and all-pairs bare next hops.
void expect_matches_batch_oracle(const ReconfigurationService& service,
                                 const OnlineReconfigurator& oracle,
                                 const std::string& context) {
  const auto epoch = service.snapshot();
  ASSERT_EQ(epoch->retired, oracle.retired()) << context;
  ASSERT_EQ(epoch->phi, oracle.mapping()) << context;
  EXPECT_TRUE(oracle.invariant_holds()) << context;

  const sim::CompressedRouter batch = scratch_bare(service.target(), oracle.retired());
  ASSERT_EQ(epoch->bare->num_exceptions(), batch.num_exceptions()) << context;
  ASSERT_EQ(epoch->bare->stats().state_hash, batch.stats().state_hash) << context;
  const auto n = static_cast<NodeId>(service.target().num_nodes());
  for (NodeId dest = 0; dest < n; ++dest) {
    for (NodeId node = 0; node < n; ++node) {
      ASSERT_EQ(epoch->bare->next_hop(dest, node), batch.next_hop(dest, node))
          << context << " " << +node << "->" << +dest;
    }
  }
}

TEST(Serve, FreshServiceServesHealthyRoutes) {
  ReconfigurationService service(db_config(4, 2));
  EXPECT_EQ(service.num_logical_nodes(), 16u);
  EXPECT_EQ(service.num_physical_nodes(), 18u);
  auto reader = service.reader();
  EXPECT_FALSE(reader.degraded());

  // Identity embedding: FT-surface routes equal healthy canonical routes.
  const auto healthy = sim::make_router(service.target());
  for (NodeId from = 0; from < 16; ++from) {
    for (NodeId dest = 0; dest < 16; ++dest) {
      EXPECT_EQ(reader.route(from, dest), healthy->path(from, dest));
      EXPECT_EQ(reader.bare_route(from, dest), healthy->path(from, dest));
      if (from != dest) {
        EXPECT_EQ(reader.next_hop(dest, from), healthy->next_hop(dest, from));
      }
    }
  }
  const auto s = service.stats();
  EXPECT_EQ(s.faults_outstanding, 0u);
  EXPECT_EQ(s.bare.exception_entries, 0u);
  EXPECT_EQ(s.journal_records, 0u);  // volatile service
}

TEST(Serve, BatchedNextHopsMatchScalarAcrossMutations) {
  // next_hops is the wave-forwarding shape of next_hop: one epoch pin, one
  // route_many. It must agree with the scalar surface element-for-element
  // through the whole fault/repair lifecycle (identity phi, shifted phi,
  // and back).
  ReconfigurationService service(db_config(4, 2));
  auto reader = service.reader();
  const NodeId n = static_cast<NodeId>(service.num_logical_nodes());

  const auto check_all_pairs = [&] {
    std::vector<NodeId> dests, nodes;
    for (NodeId from = 0; from < n; ++from) {
      for (NodeId dest = 0; dest < n; ++dest) {
        if (from == dest) continue;
        dests.push_back(dest);
        nodes.push_back(from);
      }
    }
    std::vector<NodeId> hops(dests.size());
    reader.next_hops(dests, nodes, hops);
    for (std::size_t i = 0; i < dests.size(); ++i) {
      ASSERT_EQ(hops[i], reader.next_hop(dests[i], nodes[i]))
          << nodes[i] << "->" << dests[i];
    }
  };

  check_all_pairs();
  ASSERT_EQ(service.fault({FaultKind::kNode, 5, 0}), MutationStatus::kAccepted);
  check_all_pairs();
  ASSERT_EQ(service.fault({FaultKind::kNode, 11, 0}), MutationStatus::kAccepted);
  check_all_pairs();
  ASSERT_EQ(service.repair(5), MutationStatus::kRepaired);
  check_all_pairs();

  // Contract checks: mismatched spans and out-of-range ids fail loudly.
  std::vector<NodeId> d{1, 2}, s{0}, h(2);
  EXPECT_THROW(reader.next_hops(d, s, h), std::invalid_argument);
  std::vector<NodeId> bad_d{n}, one_s{0}, one_h(1);
  EXPECT_THROW(reader.next_hops(bad_d, one_s, one_h), std::out_of_range);
}

TEST(Serve, FaultShiftsEmbeddingAndPatchesBareRouter) {
  ReconfigurationService service(db_config(4, 2));
  auto reader = service.reader();
  const auto epoch0 = reader.epoch_id();

  EXPECT_EQ(service.fault({FaultKind::kNode, 5, 0}), MutationStatus::kAccepted);
  EXPECT_GT(reader.epoch_id(), epoch0);
  EXPECT_EQ(service.fault({FaultKind::kNode, 5, 0}), MutationStatus::kRedundant);

  const auto epoch = service.snapshot();
  EXPECT_EQ(epoch->retired, (std::vector<NodeId>{5}));
  // FT surface: routes run in healthy logical space, translated through phi
  // — no physical path ever lands on the retired node.
  for (NodeId from = 0; from < 16; ++from) {
    for (const NodeId hop : reader.route(from, 9)) EXPECT_NE(hop, 5u);
  }
  // Bare surface: node 5 is simply gone; its row is unreachable.
  EXPECT_EQ(reader.bare_next_hop(5, 0), kInvalidNode);
  EXPECT_TRUE(reader.bare_route(0, 5).empty());
  EXPECT_GT(service.stats().bare.exception_entries, 0u);

  OnlineReconfigurator oracle(ft_debruijn_base2(4, 2), debruijn_base2(4));
  oracle.apply({FaultKind::kNode, 5, 0});
  expect_matches_batch_oracle(service, oracle, "one fault");
}

TEST(Serve, LinkAndBusAndSpareRegionFaults) {
  ReconfigurationService service(db_config(4, 3));
  EXPECT_EQ(service.fault({FaultKind::kLink, 3, 7}), MutationStatus::kAccepted);
  EXPECT_EQ(service.fault({FaultKind::kLink, 3, 6}), MutationStatus::kRedundant);
  EXPECT_EQ(service.fault({FaultKind::kBus, 9, 0}), MutationStatus::kAccepted);

  // A spare-region fault (node 16 >= N) reconfigures the embedding but the
  // degraded-shape router is untouched — same shared epoch component.
  const auto before = service.snapshot();
  EXPECT_EQ(service.fault({FaultKind::kNode, 16, 0}), MutationStatus::kAccepted);
  const auto after = service.snapshot();
  EXPECT_EQ(before->bare.get(), after->bare.get());
  EXPECT_NE(before->phi, after->phi);

  EXPECT_THROW(service.fault({FaultKind::kNode, 99, 0}), std::out_of_range);
  EXPECT_THROW(service.fault({FaultKind::kLink, 1, 99}), std::out_of_range);
  EXPECT_THROW(service.fault({FaultKind::kLink, 2, 2}), std::invalid_argument);
  EXPECT_THROW(service.repair(99), std::out_of_range);
}

TEST(Serve, DegradedModeRefusesFaultsKeepsQueriesAllowsRepair) {
  ReconfigurationService service(db_config(4, 1));
  auto reader = service.reader();
  EXPECT_EQ(service.fault({FaultKind::kNode, 2, 0}), MutationStatus::kAccepted);
  EXPECT_TRUE(reader.degraded());

  // Mutations are refused with the typed error; state does not move.
  const auto hash = service.state_hash();
  EXPECT_EQ(service.fault({FaultKind::kNode, 4, 0}), MutationStatus::kBudgetExhausted);
  EXPECT_EQ(service.state_hash(), hash);
  // Queries keep flowing on the last good epoch.
  EXPECT_FALSE(reader.route(0, 9).empty());
  EXPECT_NE(reader.bare_next_hop(9, 0), kInvalidNode);
  // A redundant fault is still recognized as redundant, not refused.
  EXPECT_EQ(service.fault({FaultKind::kNode, 2, 0}), MutationStatus::kRedundant);

  // Repair exits degraded mode.
  EXPECT_EQ(service.repair(2), MutationStatus::kRepaired);
  EXPECT_FALSE(reader.degraded());
  EXPECT_EQ(service.repair(2), MutationStatus::kNotRetired);
  EXPECT_EQ(service.fault({FaultKind::kNode, 4, 0}), MutationStatus::kAccepted);
}

TEST(Serve, EpochsAreReclaimedWithoutPinnedReaders) {
  ReconfigurationService service(db_config(4, 2));
  for (int round = 0; round < 10; ++round) {
    ASSERT_EQ(service.fault({FaultKind::kNode, 1, 0}), MutationStatus::kAccepted);
    ASSERT_EQ(service.repair(1), MutationStatus::kRepaired);
  }
  // Readers pin only for a query's duration, so old epochs must not pile up.
  EXPECT_EQ(service.stats().epochs_live, 1u);
}

TEST(Serve, ReadersRegisterAndDropDuringAMutationStream) {
  // Registration claims a slot without the writer lock, so readers that come
  // and go mid-stream are never parked behind a mutation. Every answer stays
  // a real physical node, and every slot comes back when its reader drops.
  ReconfigurationService service(db_config(6, 4));
  const auto n = static_cast<NodeId>(service.num_logical_nodes());
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> registrations{0};
  std::atomic<std::uint64_t> bad_answers{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      while (!stop.load()) {
        const auto reader = service.reader();
        registrations.fetch_add(1);
        for (int q = 0; q < 4; ++q) {
          const auto dest = static_cast<NodeId>(rng() % n);
          const auto node = static_cast<NodeId>(rng() % n);
          if (reader.next_hop(dest, node) >= service.num_physical_nodes()) {
            bad_answers.fetch_add(1);
          }
        }
      }
    });
  }
  // Keep mutating until the readers have cycled through many registrations.
  for (int i = 0; i < 40 || registrations.load() < 300; ++i) {
    const auto v = static_cast<NodeId>((i * 11 + 3) % n);
    ASSERT_EQ(service.fault({FaultKind::kNode, v, 0}), MutationStatus::kAccepted);
    ASSERT_EQ(service.repair(v), MutationStatus::kRepaired);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad_answers.load(), 0u);

  // Every slot was released: exactly kMaxReaders registrations fit again,
  // the next one throws, and dropping one frees a slot.
  std::vector<ReconfigurationService::Reader> held;
  for (std::size_t i = 0; i < ReconfigurationService::kMaxReaders; ++i) {
    held.push_back(service.reader());
  }
  EXPECT_THROW(service.reader(), std::runtime_error);
  held.pop_back();
  EXPECT_NO_THROW(service.reader());
}

TEST(Serve, SnapshotKeepsEpochAliveAcrossMutations) {
  ReconfigurationService service(db_config(4, 2));
  const auto old_epoch = service.snapshot();
  ASSERT_EQ(service.fault({FaultKind::kNode, 3, 0}), MutationStatus::kAccepted);
  // The shared_ptr snapshot outlives publication + sweeps; its content is
  // still the pre-fault state.
  EXPECT_TRUE(old_epoch->retired.empty());
  EXPECT_EQ(old_epoch->bare->num_exceptions(), 0u);
  EXPECT_EQ(service.snapshot()->retired, (std::vector<NodeId>{3}));
}

TEST(Serve, JournalReplayRestoresStateByteIdentically) {
  TempPath journal("replay");
  std::uint64_t hash = 0;
  {
    ReconfigurationService service(db_config(4, 3, journal.str()));
    EXPECT_EQ(service.fault({FaultKind::kNode, 5, 0}), MutationStatus::kAccepted);
    EXPECT_EQ(service.fault({FaultKind::kLink, 3, 7}), MutationStatus::kAccepted);
    EXPECT_EQ(service.fault({FaultKind::kNode, 5, 0}), MutationStatus::kRedundant);
    EXPECT_EQ(service.repair(3), MutationStatus::kRepaired);
    EXPECT_EQ(service.fault({FaultKind::kBus, 12, 0}), MutationStatus::kAccepted);
    EXPECT_EQ(service.stats().journal_records, 5u);
    hash = service.state_hash();
  }
  ReconfigurationService replayed(db_config(4, 3, journal.str()));
  EXPECT_EQ(replayed.replayed_events(), 5u);
  EXPECT_EQ(replayed.state_hash(), hash);

  OnlineReconfigurator oracle(ft_debruijn_base2(4, 3), debruijn_base2(4));
  oracle.apply({FaultKind::kNode, 5, 0});
  oracle.apply({FaultKind::kLink, 3, 7});
  oracle.repair(3);
  oracle.apply({FaultKind::kBus, 12, 0});
  expect_matches_batch_oracle(replayed, oracle, "after replay");
}

TEST(Serve, TornJournalTailIsTruncatedOnRecovery) {
  TempPath journal("torn");
  std::uint64_t hash = 0;
  {
    ReconfigurationService service(db_config(4, 2, journal.str()));
    service.fault({FaultKind::kNode, 5, 0});
    service.fault({FaultKind::kNode, 9, 0});
    hash = service.state_hash();
  }
  {  // a crash mid-append leaves a partial frame
    std::ofstream f(journal.str(), std::ios::binary | std::ios::app);
    f.write("\x01\x03\x00", 3);
  }
  ReconfigurationService replayed(db_config(4, 2, journal.str()));
  EXPECT_EQ(replayed.replayed_events(), 2u);
  EXPECT_EQ(replayed.state_hash(), hash);
}

TEST(Serve, JournalRefusesForeignFingerprintAndGarbage) {
  TempPath journal("fp");
  { ReconfigurationService service(db_config(4, 2, journal.str())); }
  // Same path, different machine shape: refused up front.
  EXPECT_THROW(ReconfigurationService(db_config(5, 2, journal.str())), std::runtime_error);
  EXPECT_THROW(ReconfigurationService(db_config(4, 3, journal.str())), std::runtime_error);
  {
    std::ofstream f(journal.str(), std::ios::binary | std::ios::trunc);
    f << "not a journal at all";
  }
  EXPECT_THROW(ReconfigurationService(db_config(4, 2, journal.str())), std::runtime_error);
}

TEST(Serve, CheckpointCompactsJournalPreservingState) {
  TempPath journal("ckpt");
  std::uint64_t hash = 0;
  {
    ReconfigurationService service(db_config(4, 2, journal.str()));
    for (int round = 0; round < 6; ++round) {
      service.fault({FaultKind::kNode, static_cast<NodeId>(round % 3 + 1), 0});
      service.repair(static_cast<NodeId>(round % 3 + 1));
    }
    service.fault({FaultKind::kNode, 7, 0});
    service.fault({FaultKind::kLink, 2, 4});
    const auto before = service.stats().journal_bytes;
    hash = service.state_hash();
    service.checkpoint();
    EXPECT_EQ(service.state_hash(), hash);
    EXPECT_LT(service.stats().journal_bytes, before);
    EXPECT_EQ(service.stats().journal_records, 2u);  // one per outstanding fault
  }
  ReconfigurationService replayed(db_config(4, 2, journal.str()));
  EXPECT_EQ(replayed.replayed_events(), 2u);
  EXPECT_EQ(replayed.state_hash(), hash);
}

TEST(Serve, ShuffleExchangeFamilyServes) {
  ServeConfig config;
  config.family = Family::kShuffleExchange;
  config.digits = 4;
  config.spares = 2;
  ReconfigurationService service(config);
  auto reader = service.reader();
  EXPECT_EQ(service.fault({FaultKind::kNode, 6, 0}), MutationStatus::kAccepted);
  for (const NodeId hop : reader.route(0, 13)) EXPECT_NE(hop, 6u);
  const auto bare_path = reader.bare_route(0, 13);
  EXPECT_EQ(std::count(bare_path.begin(), bare_path.end(), 6), 0);
  EXPECT_GT(service.stats().bare.exception_entries, 0u);
  EXPECT_EQ(service.repair(6), MutationStatus::kRepaired);
  EXPECT_EQ(service.stats().bare.exception_entries, 0u);
}

// The satellite property test: 500+ mixed events through a journaled
// service; every 50th event the full published state is checked against a
// batch rebuild of the whole history, and mid-stream the journal is replayed
// into a second service (the kill-and-recover scenario) and must agree.
TEST(Serve, RandomizedEventStreamMatchesBatchOracle) {
  TempPath journal("prop");
  const unsigned h = 5;
  const unsigned k = 4;
  ReconfigurationService service(db_config(h, k, journal.str()));
  OnlineReconfigurator oracle(ft_debruijn_base2(h, k), debruijn_base2(h));
  const auto physical = static_cast<NodeId>(service.num_physical_nodes());

  std::mt19937_64 rng(2026);
  int accepted = 0, refused = 0, repaired = 0;
  for (int event = 0; event < 520; ++event) {
    const unsigned roll = static_cast<unsigned>(rng() % 10);
    if (roll < 3 && oracle.faults_outstanding() > 0) {
      const auto& retired = oracle.retired();
      const NodeId node = retired[rng() % retired.size()];
      ASSERT_EQ(service.repair(node), MutationStatus::kRepaired) << "event " << event;
      ASSERT_TRUE(oracle.repair(node));
      ++repaired;
    } else {
      FaultEvent fe;
      fe.node = static_cast<NodeId>(rng() % physical);
      if (roll < 6) {
        fe.kind = FaultKind::kNode;
      } else if (roll < 8) {
        fe.kind = FaultKind::kBus;
      } else {
        fe.kind = FaultKind::kLink;
        fe.node = static_cast<NodeId>(rng() % (physical / 2));
        do {
          fe.other = static_cast<NodeId>(rng() % physical);
        } while (fe.other == fe.node);
      }
      const MutationStatus got = service.fault(fe);
      const EventStatus want = oracle.apply(fe);
      switch (want) {
        case EventStatus::kAccepted:
          ASSERT_EQ(got, MutationStatus::kAccepted) << "event " << event;
          ++accepted;
          break;
        case EventStatus::kRedundant:
          ASSERT_EQ(got, MutationStatus::kRedundant) << "event " << event;
          break;
        case EventStatus::kBudgetExhausted:
          ASSERT_EQ(got, MutationStatus::kBudgetExhausted) << "event " << event;
          ++refused;
          break;
      }
    }
    if (event % 50 == 49) {
      expect_matches_batch_oracle(service, oracle,
                                  "property event " + std::to_string(event));
    }
    if (event == 259) {
      // Kill-and-recover mid-stream: a second service replays the same
      // journal (the file is shared; the replica only reads) and must land
      // on the identical state.
      ReconfigurationService replica(db_config(h, k, journal.str()));
      ASSERT_EQ(replica.state_hash(), service.state_hash());
      expect_matches_batch_oracle(replica, oracle, "mid-stream replica");
    }
  }
  // The stream genuinely exercised all three outcomes.
  EXPECT_GT(accepted, 50);
  EXPECT_GT(refused, 0);
  EXPECT_GT(repaired, 50);

  const std::uint64_t hash = service.state_hash();
  service.checkpoint();
  ASSERT_EQ(service.state_hash(), hash);
  ReconfigurationService survivor(db_config(h, k, journal.str()));
  EXPECT_EQ(survivor.state_hash(), hash);
  expect_matches_batch_oracle(survivor, oracle, "final survivor");
}

TEST(Serve, JournalUnitRoundTrip) {
  TempPath path("unit");
  const std::uint64_t fp = 0xABCDEF0123456789ull;
  {
    Journal j(path.str(), fp, /*fsync=*/false);
    EXPECT_TRUE(j.recovered().empty());
    j.append({JournalOp::kFaultNode, 7, 0});
    j.append({JournalOp::kFaultLink, 3, 9});
    j.append({JournalOp::kRepair, 7, 0});
    EXPECT_EQ(j.num_records(), 3u);
  }
  {
    Journal j(path.str(), fp, false);
    ASSERT_EQ(j.recovered().size(), 3u);
    EXPECT_EQ(j.recovered()[1], (JournalRecord{JournalOp::kFaultLink, 3, 9}));
    EXPECT_EQ(j.truncated_bytes(), 0u);
    j.rewrite({{JournalOp::kFaultBus, 1, 0}});
  }
  {
    Journal j(path.str(), fp, false);
    ASSERT_EQ(j.recovered().size(), 1u);
    EXPECT_EQ(j.recovered()[0].op, JournalOp::kFaultBus);
    EXPECT_THROW(Journal(path.str(), fp + 1, false), std::runtime_error);
  }
}

}  // namespace
}  // namespace ftdb::serve
