#include "protocols/latency_figure.h"

#include <cstdio>

#include "metrics/report.h"
#include "sim/replica_runner.h"
#include "topology/gtitm.h"
#include "topology/planetlab.h"

namespace tmesh {

std::unique_ptr<Network> MakeFigureNetwork(FigureTopology topo, int hosts,
                                           std::uint64_t seed) {
  if (topo == FigureTopology::kPlanetLab) {
    PlanetLabParams p;
    p.hosts = hosts;
    p.seed = seed;
    return std::make_unique<PlanetLabNetwork>(p);
  }
  GtItmParams p;
  p.seed = seed;
  return std::make_unique<GtItmNetwork>(p, hosts, seed * 31 + 1);
}

void PrintLatencyFigure(std::ostream& os, const LatencyFigureConfig& cfg) {
  RankedRunStats t_stress, t_delay, t_rdp, n_stress, n_delay, n_rdp;
  std::vector<double> t_rdp_all, n_rdp_all;

  // A replica's tables AND its metrics travel together and merge in
  // run-index order, so the aggregate registry — like the printed tables —
  // is byte-identical for every thread count.
  struct ReplicaOut {
    LatencyRunResult res;
    MetricsRegistry reg;
  };

  ReplicaRunner runner(cfg.threads);
  runner.Run(
      cfg.runs,
      [&](ReplicaRunner::Replica& rep) {
        const std::uint64_t run_seed =
            cfg.seed + static_cast<std::uint64_t>(rep.index) * 1000003;
        auto net = MakeFigureNetwork(cfg.topo, cfg.users + 1, run_seed);
        LatencyRunConfig rcfg;
        rcfg.users = cfg.users;
        rcfg.data_path = cfg.data_path;
        rcfg.join_window_s =
            cfg.topo == FigureTopology::kPlanetLab ? 452.0 : 2048.0;
        rcfg.session = cfg.session;
        ReplicaOut out;
        if (cfg.metrics != nullptr) rcfg.metrics = &out.reg;
        if (rep.index == 0) rcfg.tracer = cfg.tracer;
        out.res = RunLatencyExperiment(*net, rcfg, run_seed * 7 + 13,
                                       &rep.sim);
        if (cfg.progress) {
          std::fprintf(stderr, "  run %d/%d done\n", rep.index + 1, cfg.runs);
        }
        return out;
      },
      [&](int, ReplicaOut&& out) {
        LatencyRunResult& res = out.res;
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
        if (cfg.metrics != nullptr) cfg.metrics->MergeFrom(out.reg);
      });

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
}

}  // namespace tmesh
