// Golden pins for the packet engine and the collective executor: the exact
// SimStats / ScheduleRunResult of fixed workloads on healthy, reconfigured
// and degraded de Bruijn and shuffle-exchange machines. The values were
// captured from the original per-link-deque engine, which scanned every link
// each cycle; the active-link kernel must reproduce them field for field.
//
// Traffic comes from the splitmix-based generators only (zipf_traffic with
// theta = 0 is the uniform pattern), so the pins do not depend on the
// standard library's distribution algorithms.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {
namespace {

std::string pin(const SimStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "inj=%llu del=%llu und=%llu tmo=%llu cyc=%llu lat=%llu max=%llu "
                "hops=%llu q=%zu",
                static_cast<unsigned long long>(s.injected),
                static_cast<unsigned long long>(s.delivered),
                static_cast<unsigned long long>(s.undeliverable),
                static_cast<unsigned long long>(s.timed_out),
                static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(s.total_latency),
                static_cast<unsigned long long>(s.max_latency),
                static_cast<unsigned long long>(s.total_hops), s.max_queue_depth);
  return buf;
}

std::string pin(const ScheduleRunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "rounds=%zu cyc=%llu hopcyc=%llu cong=%zu sends=%llu del=%llu "
                "und=%llu tmo=%llu",
                r.rounds, static_cast<unsigned long long>(r.total_cycles),
                static_cast<unsigned long long>(r.total_hop_cycles), r.max_link_congestion,
                static_cast<unsigned long long>(r.logical_sends),
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.undeliverable),
                static_cast<unsigned long long>(r.timed_out));
  return buf;
}

/// The three machines of one family: healthy, reconfigured around two
/// faults, and the bare target with the same two nodes dead.
struct Family {
  Graph target;
  Machine healthy;
  Machine reconfigured;
  Machine degraded;
};

Family debruijn_family() {
  const Graph target = debruijn_base2(5);
  const Graph ft = ft_debruijn_base2(5, 2);
  return {target, Machine::direct(target),
          Machine::reconfigured(ft, FaultSet(ft.num_nodes(), {3, 17}), target.num_nodes()),
          Machine::direct_with_faults(target, FaultSet(target.num_nodes(), {3, 17}))};
}

Family se_family() {
  const Graph target = shuffle_exchange_graph(5);
  const Graph ft = ft_shuffle_exchange_natural(5, 2).ft_graph;
  return {target, Machine::direct(target),
          Machine::reconfigured(ft, FaultSet(ft.num_nodes(), {5, 20}), target.num_nodes()),
          Machine::direct_with_faults(target, FaultSet(target.num_nodes(), {5, 20}))};
}

/// The three traffic shapes the campaign metric offers, at loads that queue.
std::vector<std::vector<Packet>> workloads(std::size_t n) {
  return {zipf_traffic(n, 8 * n, 0.0, 11, 8),   // uniform
          zipf_traffic(n, 8 * n, 1.0, 12, 8),   // Zipf
          hotspot_burst_traffic(n, 8 * n, {1, 9, 30}, 0.6, 5, 13, 0)};
}

std::vector<std::string> run_family(const Family& f) {
  std::vector<std::string> out;
  for (const Machine* m : {&f.healthy, &f.reconfigured, &f.degraded}) {
    for (const std::vector<Packet>& packets : workloads(f.target.num_nodes())) {
      out.push_back(pin(run_packets(*m, f.target, packets)));
    }
  }
  return out;
}

void expect_pins(const std::vector<std::string>& got, const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]) << "case " << i;
}

TEST(EngineGolden, DebruijnMachinesUnderEveryTrafficShape) {
  expect_pins(run_family(debruijn_family()), {
      "inj=256 del=256 und=0 tmo=0 cyc=34 lat=712 max=7 hops=647 q=3",
      "inj=256 del=256 und=0 tmo=0 cyc=47 lat=1292 max=17 hops=716 q=12",
      "inj=256 del=256 und=0 tmo=0 cyc=38 lat=1161 max=16 hops=718 q=9",
      "inj=256 del=256 und=0 tmo=0 cyc=34 lat=712 max=7 hops=647 q=3",
      "inj=256 del=256 und=0 tmo=0 cyc=47 lat=1292 max=17 hops=716 q=12",
      "inj=256 del=256 und=0 tmo=0 cyc=38 lat=1161 max=16 hops=718 q=9",
      "inj=256 del=232 und=24 tmo=0 cyc=34 lat=669 max=7 hops=609 q=3",
      "inj=256 del=225 und=31 tmo=0 cyc=48 lat=1082 max=17 hops=673 q=12",
      "inj=256 del=230 und=26 tmo=0 cyc=41 lat=1187 max=25 hops=673 q=12"});
}

TEST(EngineGolden, ShuffleExchangeMachinesUnderEveryTrafficShape) {
  expect_pins(run_family(se_family()), {
      "inj=256 del=256 und=0 tmo=0 cyc=38 lat=960 max=10 hops=848 q=3",
      "inj=256 del=256 und=0 tmo=0 cyc=65 lat=2503 max=39 hops=983 q=18",
      "inj=256 del=256 und=0 tmo=0 cyc=48 lat=1652 max=23 hops=971 q=6",
      "inj=256 del=256 und=0 tmo=0 cyc=38 lat=960 max=10 hops=848 q=3",
      "inj=256 del=256 und=0 tmo=0 cyc=65 lat=2503 max=39 hops=983 q=18",
      "inj=256 del=256 und=0 tmo=0 cyc=48 lat=1652 max=23 hops=971 q=6",
      "inj=256 del=220 und=36 tmo=0 cyc=44 lat=1089 max=18 hops=791 q=12",
      "inj=256 del=229 und=27 tmo=0 cyc=85 lat=3257 max=57 hops=978 q=30",
      "inj=256 del=240 und=16 tmo=0 cyc=48 lat=1771 max=23 hops=1006 q=6"});
}

TEST(EngineGolden, TruncatedRunThenReusedRun) {
  // A run cut off by max_cycles leaves packets on the queues; the next run on
  // the same simulator starts clean and matches a fresh simulator.
  const std::vector<std::string> want = {
      "inj=48 del=16 und=1 tmo=31 cyc=6 lat=51 max=6 hops=44 q=7",
      "inj=192 del=160 und=32 tmo=0 cyc=39 lat=680 max=13 hops=482 q=7",
      "inj=48 del=9 und=3 tmo=36 cyc=6 lat=33 max=5 hops=28 q=5",
      "inj=192 del=173 und=19 tmo=0 cyc=63 lat=1565 max=32 hops=731 q=19"};
  std::vector<std::string> got;
  for (const Family& f : {debruijn_family(), se_family()}) {
    const std::size_t n = f.target.num_nodes();
    PacketSimulator sim(f.degraded, f.target);
    const std::vector<Packet> burst = hotspot_burst_traffic(n, 12 * n, {0, 7}, 0.8, 4, 21, 0);
    const std::vector<Packet> zipf = zipf_traffic(n, 6 * n, 1.0, 22, 6);
    const SimStats cut = sim.run(burst, 6);
    const SimStats reused = sim.run(zipf);
    EXPECT_GT(cut.timed_out, 0u);
    EXPECT_EQ(pin(reused), pin(run_packets(f.degraded, f.target, zipf)));
    got.push_back(pin(cut));
    got.push_back(pin(reused));
  }
  expect_pins(got, want);
}

TEST(EngineGolden, LongBacklogOnTheSinkLinks) {
  // Every node floods node 0 faster than its two in-links drain, so those
  // queues grow to hundreds of packets and never empty until the end.
  const Graph target = debruijn_base2(4);
  std::vector<Packet> flood;
  for (std::uint64_t i = 0; i < 2400; ++i) {
    flood.push_back({i, static_cast<NodeId>(1 + i % 15), 0, i / 12});
  }
  const Machine healthy = Machine::direct(target);
  const Machine degraded = Machine::direct_with_faults(target, FaultSet(16, {8}));
  expect_pins({pin(run_packets(healthy, target, flood)),
               pin(run_packets(degraded, target, flood, {.max_cycles = 700}))},
              {"inj=2400 del=2400 und=0 tmo=0 cyc=1600 lat=1362400 max=1401 hops=6400 q=800",
               "inj=2400 del=700 und=160 tmo=1540 cyc=700 lat=214143 max=659 hops=1844 q=860"});
}

TEST(EngineGolden, EveryScheduleKindOnHealthyAndDegradedMachines) {
  const std::vector<ScheduleKind> kinds = {
      ScheduleKind::AllToAllBruck,
      ScheduleKind::AllToAllPairwise,
      ScheduleKind::AllgatherRecursiveDoubling,
      ScheduleKind::AllgatherBruck,
      ScheduleKind::AllreduceRecursiveHalvingDoubling,
      ScheduleKind::AllreduceReduceScatterAllgather,
  };
  std::vector<std::string> got;
  for (const Family& f : {debruijn_family(), se_family()}) {
    std::vector<NodeId> all(f.target.num_nodes());
    for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
    std::vector<NodeId> survivors;
    for (NodeId v = 0; v < all.size(); ++v) {
      if (!f.degraded.dead[f.degraded.to_physical[v]]) survivors.push_back(v);
    }
    for (const ScheduleKind kind : kinds) {
      const Schedule full = build_schedule(kind, static_cast<std::uint32_t>(all.size()));
      const Schedule part = build_schedule(kind, static_cast<std::uint32_t>(survivors.size()));
      got.push_back(pin(execute_schedule(f.healthy, f.target, full, all)));
      got.push_back(pin(execute_schedule(f.degraded, f.target, part, survivors)));
    }
  }
  expect_pins(got, {
               "rounds=5 cyc=199 hopcyc=6320 cong=31 sends=2560 del=2560 und=0 tmo=0",
               "rounds=5 cyc=253 hopcyc=5936 cong=30 sends=2130 del=2130 und=0 tmo=0",
               "rounds=31 cyc=160 hopcyc=2732 cong=4 sends=992 del=992 und=0 tmo=0",
               "rounds=29 cyc=161 hopcyc=2476 cong=3 sends=870 del=870 und=0 tmo=0",
               "rounds=5 cyc=56 hopcyc=2196 cong=15 sends=992 del=992 und=0 tmo=0",
               "rounds=6 cyc=131 hopcyc=2524 cong=29 sends=884 del=884 und=0 tmo=0",
               "rounds=5 cyc=64 hopcyc=2255 cong=16 sends=992 del=992 und=0 tmo=0",
               "rounds=5 cyc=107 hopcyc=2518 cong=29 sends=870 del=870 und=0 tmo=0",
               "rounds=10 cyc=112 hopcyc=4392 cong=15 sends=1984 del=1984 und=0 tmo=0",
               "rounds=10 cyc=256 hopcyc=4968 cong=29 sends=1740 del=1740 und=0 tmo=0",
               "rounds=36 cyc=219 hopcyc=4580 cong=16 sends=1984 del=1984 und=0 tmo=0",
               "rounds=34 cyc=310 hopcyc=4548 cong=29 sends=1740 del=1740 und=0 tmo=0",
               "rounds=5 cyc=295 hopcyc=7760 cong=32 sends=2560 del=2560 und=0 tmo=0",
               "rounds=5 cyc=378 hopcyc=7708 cong=41 sends=2130 del=2130 und=0 tmo=0",
               "rounds=31 cyc=209 hopcyc=3560 cong=4 sends=992 del=992 und=0 tmo=0",
               "rounds=29 cyc=261 hopcyc=3408 cong=3 sends=870 del=870 und=0 tmo=0",
               "rounds=5 cyc=93 hopcyc=2864 cong=17 sends=992 del=992 und=0 tmo=0",
               "rounds=6 cyc=186 hopcyc=3194 cong=31 sends=884 del=884 und=0 tmo=0",
               "rounds=5 cyc=113 hopcyc=3007 cong=17 sends=992 del=992 und=0 tmo=0",
               "rounds=5 cyc=177 hopcyc=3416 cong=42 sends=870 del=870 und=0 tmo=0",
               "rounds=10 cyc=186 hopcyc=5728 cong=17 sends=1984 del=1984 und=0 tmo=0",
               "rounds=10 cyc=357 hopcyc=6280 cong=31 sends=1740 del=1740 und=0 tmo=0",
               "rounds=36 cyc=392 hopcyc=5208 cong=17 sends=1984 del=1984 und=0 tmo=0",
               "rounds=34 cyc=438 hopcyc=5678 cong=42 sends=1740 del=1740 und=0 tmo=0"});
}

}  // namespace
}  // namespace ftdb::sim
