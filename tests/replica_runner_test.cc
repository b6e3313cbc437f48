// ReplicaRunner determinism and pool-contract tests.
//
// The acceptance bar for the parallel replica harness: for every figure
// bench, output with --threads=N (any N) is byte-identical to --threads=1,
// which in turn is exactly the old sequential loop. This suite pins that
// three ways:
//  1. pool mechanics — every index runs exactly once, merge is called in
//     strictly increasing index order, each replica sees a
//     freshly-Reset() worker simulator, exceptions propagate;
//  2. a fig06-style latency figure printed at threads 1 / 2 / 7 is
//     byte-identical to a hand-rolled copy of the old sequential bench
//     loop (fresh Simulator per run, no runner);
//  3. the Fig. 12 rekey-cost experiment produces bit-equal cell averages
//     for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/report.h"
#include "protocols/latency_figure.h"
#include "protocols/rekey_cost_experiment.h"
#include "sim/replica_runner.h"
#include "topology/gtitm.h"

namespace tmesh {
namespace {

TEST(ReplicaRunner, EveryIndexRunsOnceAndMergesInOrder) {
  for (int threads : {1, 2, 7}) {
    ReplicaRunner runner(threads);
    const int runs = 37;
    std::atomic<int> body_calls{0};
    int expect = 0;
    runner.Run(
        runs,
        [&](ReplicaRunner::Replica& rep) {
          body_calls.fetch_add(1);
          return rep.index * rep.index;
        },
        [&](int i, int&& v) {
          EXPECT_EQ(i, expect) << "merge out of order at threads=" << threads;
          EXPECT_EQ(v, i * i);
          ++expect;
        });
    EXPECT_EQ(body_calls.load(), runs);
    EXPECT_EQ(expect, runs);
  }
}

TEST(ReplicaRunner, WorkerSimulatorIsFreshForEveryReplica) {
  ReplicaRunner runner(3);
  std::atomic<int> dirty{0};
  runner.Run(
      16,
      [&](ReplicaRunner::Replica& rep) {
        if (rep.sim.Now() != 0 || !rep.sim.Empty()) dirty.fetch_add(1);
        // Leave the simulator mid-flight: clock advanced, events pending.
        rep.sim.ScheduleIn(10, [] {});
        rep.sim.ScheduleIn(1000, [] {});
        rep.sim.RunUntil(10);
        return 0;
      },
      [](int, int&&) {});
  EXPECT_EQ(dirty.load(), 0);
}

TEST(ReplicaRunner, SequentialPathStreamsBodyAndMerge) {
  // threads=1 must be the old loop: body(i) then merge(i), interleaved.
  ReplicaRunner runner(1);
  std::vector<std::string> order;
  runner.Run(
      3,
      [&](ReplicaRunner::Replica& rep) {
        order.push_back("body" + std::to_string(rep.index));
        return 0;
      },
      [&](int i, int&&) { order.push_back("merge" + std::to_string(i)); });
  EXPECT_EQ(order, (std::vector<std::string>{"body0", "merge0", "body1",
                                             "merge1", "body2", "merge2"}));
}

TEST(ReplicaRunner, ReplicaExceptionPropagates) {
  for (int threads : {1, 4}) {
    ReplicaRunner runner(threads);
    auto run = [&] {
      runner.Run(
          12,
          [&](ReplicaRunner::Replica& rep) {
            if (rep.index == 5) throw std::runtime_error("replica 5 failed");
            return 0;
          },
          [](int, int&&) {});
    };
    EXPECT_THROW(run(), std::runtime_error);
  }
}

// --- figure-level byte identity ------------------------------------------

LatencyFigureConfig SmallFigure() {
  LatencyFigureConfig cfg;
  cfg.title = "test figure";
  cfg.topo = FigureTopology::kPlanetLab;
  cfg.users = 24;
  cfg.data_path = false;
  cfg.runs = 5;
  cfg.seed = 3;
  return cfg;  // session: defaults == the paper session
}

// A verbatim copy of the old sequential bench loop (bench_common.h before
// the ReplicaRunner port): fresh local Simulator per run, streaming merge.
std::string SequentialFigure(const LatencyFigureConfig& cfg) {
  RankedRunStats t_stress, t_delay, t_rdp, n_stress, n_delay, n_rdp;
  std::vector<double> t_rdp_all, n_rdp_all;
  for (int run = 0; run < cfg.runs; ++run) {
    std::uint64_t run_seed =
        cfg.seed + static_cast<std::uint64_t>(run) * 1000003;
    auto net = MakeFigureNetwork(cfg.topo, cfg.users + 1, run_seed);
    LatencyRunConfig rcfg;
    rcfg.users = cfg.users;
    rcfg.data_path = cfg.data_path;
    rcfg.join_window_s =
        cfg.topo == FigureTopology::kPlanetLab ? 452.0 : 2048.0;
    rcfg.session = cfg.session;
    auto res = RunLatencyExperiment(*net, rcfg, run_seed * 7 + 13);
    t_stress.AddRun(res.tmesh.stress);
    t_delay.AddRun(res.tmesh.delay_ms);
    t_rdp.AddRun(res.tmesh.rdp);
    n_stress.AddRun(res.nice.stress);
    n_delay.AddRun(res.nice.delay_ms);
    n_rdp.AddRun(res.nice.rdp);
    t_rdp_all.insert(t_rdp_all.end(), res.tmesh.rdp.begin(),
                     res.tmesh.rdp.end());
    n_rdp_all.insert(n_rdp_all.end(), res.nice.rdp.begin(),
                     res.nice.rdp.end());
  }
  std::ostringstream os;
  auto fr = DefaultFractions();
  PrintRankedTable(os, cfg.title + " (a): user stress", fr,
                   {{"T-mesh", &t_stress}, {"NICE", &n_stress}});
  os << "\n";
  PrintRankedTable(os, cfg.title + " (b): application-layer delay [ms]", fr,
                   {{"T-mesh", &t_delay}, {"NICE", &n_delay}});
  os << "\n";
  PrintRankedTable(os, cfg.title + " (c): relative delay penalty (RDP)", fr,
                   {{"T-mesh", &t_rdp}, {"NICE", &n_rdp}});
  InverseCdf tc(t_rdp_all), nc(n_rdp_all);
  char headline[256];
  std::snprintf(
      headline, sizeof(headline),
      "\n# headline: T-mesh RDP<2: %.0f%%, RDP<3: %.0f%%  |  NICE RDP<2: "
      "%.0f%%, RDP<3: %.0f%%\n"
      "#   (paper, Fig. 6: T-mesh 78%% / 95%%; NICE 23%% / 47%%)\n",
      100 * tc.FractionAtOrBelow(2.0), 100 * tc.FractionAtOrBelow(3.0),
      100 * nc.FractionAtOrBelow(2.0), 100 * nc.FractionAtOrBelow(3.0));
  os << headline;
  return os.str();
}

TEST(ReplicaRunner, LatencyFigureBytesAreThreadCountInvariant) {
  LatencyFigureConfig cfg = SmallFigure();
  const std::string sequential = SequentialFigure(cfg);
  ASSERT_FALSE(sequential.empty());
  for (int threads : {1, 2, 7}) {
    cfg.threads = threads;
    std::ostringstream os;
    PrintLatencyFigure(os, cfg);
    EXPECT_EQ(os.str(), sequential) << "threads=" << threads;
  }
}

TEST(ReplicaRunner, RekeyCostCellsAreThreadCountInvariant) {
  RekeyCostConfig cfg;
  cfg.seed = 11;
  cfg.initial_users = 48;
  cfg.grid = {0, 16, 48};
  cfg.runs = 3;
  // A small transit-stub instance keeps the per-run topology build cheap.
  cfg.topology.transit_domains = 3;
  cfg.topology.transit_routers_per_domain = 3;
  cfg.topology.stub_domains_per_transit_router = 2;
  cfg.topology.stub_routers_min = 4;
  cfg.topology.stub_routers_max = 7;
  cfg.session.with_nice = false;

  cfg.threads = 1;
  auto sequential = RunRekeyCostExperiment(cfg);
  ASSERT_EQ(sequential.size(), cfg.grid.size() * cfg.grid.size());
  for (int threads : {2, 7}) {
    cfg.threads = threads;
    auto parallel = RunRekeyCostExperiment(cfg);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(parallel[i].joins, sequential[i].joins);
      EXPECT_EQ(parallel[i].leaves, sequential[i].leaves);
      // Bit-equality, not tolerance: merge order is fixed by run index.
      EXPECT_EQ(parallel[i].modified, sequential[i].modified) << i;
      EXPECT_EQ(parallel[i].original, sequential[i].original) << i;
      EXPECT_EQ(parallel[i].cluster, sequential[i].cluster) << i;
    }
  }
}

TEST(ReplicaRunner, ReplicasShareOneGraphsShortestPaths) {
  // Replicas of the ablation benches share one network. Their first
  // queries race to build the graph's compressed adjacency and fill the
  // shortest-path cache, and each worker reuses its own bucket-queue
  // scratch; every tree must still equal the one a single thread computes.
  GtItmParams p;
  p.seed = 31;
  p.transit_domains = 3;
  p.transit_routers_per_domain = 3;
  p.stub_domains_per_transit_router = 2;
  p.stub_routers_min = 4;
  p.stub_routers_max = 7;
  const int hosts = 24;
  GtItmNetwork alone(p, hosts, 5);
  for (int threads : {2, 7}) {
    GtItmNetwork shared(p, hosts, 5);  // adjacency and cache still empty
    ReplicaRunner runner(threads);
    std::vector<std::vector<float>> dist(static_cast<std::size_t>(hosts));
    runner.Run(
        hosts,
        [&](ReplicaRunner::Replica& rep) {
          const HostId h = rep.index;
          // The cached tree plus a fresh one on this worker's scratch.
          std::vector<float> d = shared.SptFromHost(h).dist_ms;
          const Graph::SptResult fresh =
              shared.graph().Dijkstra(shared.attach_router(h));
          EXPECT_EQ(fresh.dist_ms, d);
          return d;
        },
        [&](int i, std::vector<float>&& d) {
          dist[static_cast<std::size_t>(i)] = std::move(d);
        });
    for (HostId h = 0; h < hosts; ++h) {
      EXPECT_EQ(dist[static_cast<std::size_t>(h)],
                alone.SptFromHost(h).dist_ms)
          << "host " << h << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace tmesh
