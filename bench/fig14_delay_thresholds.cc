// Fig. 14: sensitivity of T-mesh rekey latency to the number of ID digits D
// and the delay thresholds (R_1, ..., R_{D-1}); PlanetLab, 226 joins.
// One run per configuration (the paper plots "a typical simulation run").
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tmesh;
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{
      "fig14_delay_thresholds",
      "Fig. 14: sensitivity to ID digits and delay thresholds", 90};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);
  int users = f.users > 0 ? f.users : 226;

  struct Variant {
    std::string name;
    int digits;
    std::vector<double> thresholds;
  };
  std::vector<Variant> variants = {
      {"D=5 (150,30,9,3)", 5, {150, 30, 9, 3}},
      {"D=6 (150,80,30,9,3)", 6, {150, 80, 30, 9, 3}},
      {"D=6 (150,50,30,9,3)", 6, {150, 50, 30, 9, 3}},
      {"D=4 (150,30,9)", 4, {150, 30, 9}},
  };

  std::vector<std::unique_ptr<InverseCdf>> keep;
  std::vector<std::pair<std::string, const InverseCdf*>> delays, rdps;

  // One replica per variant; each builds its own network and session, so
  // the pool may run them concurrently. Merging in variant order keeps the
  // tables' series order (and the output bytes) fixed for any --threads.
  // Each variant's metrics ride in a replica-local registry merged in the
  // same order, so the artifact is thread-count-independent too.
  struct VariantOut {
    LatencyRunResult res;
    MetricsRegistry reg;
  };
  ReplicaRunner runner(f.Threads());
  runner.Run(
      static_cast<int>(variants.size()),
      [&](ReplicaRunner::Replica& rep) {
        const Variant& v = variants[static_cast<std::size_t>(rep.index)];
        auto net = MakeNetwork(Topo::kPlanetLab, users + 1, f.seed);
        LatencyRunConfig cfg;
        cfg.users = users;
        cfg.join_window_s = 452.0;
        cfg.session = PaperSession();
        cfg.session.with_nice = false;
        cfg.session.group.digits = v.digits;
        cfg.session.assign.thresholds_ms = v.thresholds;
        VariantOut out;
        if (art.metrics() != nullptr) cfg.metrics = &out.reg;
        out.res = RunLatencyExperiment(*net, cfg, f.seed * 7 + 13, &rep.sim);
        std::fprintf(stderr, "  variant %s done\n", v.name.c_str());
        return out;
      },
      [&](int i, VariantOut&& out) {
        LatencyRunResult& res = out.res;
        const Variant& v = variants[static_cast<std::size_t>(i)];
        keep.push_back(std::make_unique<InverseCdf>(res.tmesh.delay_ms));
        delays.push_back({v.name, keep.back().get()});
        keep.push_back(std::make_unique<InverseCdf>(res.tmesh.rdp));
        rdps.push_back({v.name, keep.back().get()});
        if (art.metrics() != nullptr) art.metrics()->MergeFrom(out.reg);
      });

  auto fr = DefaultFractions();
  PrintInverseCdfTable(
      std::cout,
      "Fig 14 (a): application-layer delay [ms], T-mesh rekey, PlanetLab",
      fr, delays);
  std::printf("\n");
  PrintInverseCdfTable(std::cout, "Fig 14 (b): RDP, T-mesh rekey, PlanetLab",
                       fr, rdps);
  std::printf("\n# paper shape: latency is not sensitive to the chosen D / "
              "threshold variants.\n");
  art.Write();
  return 0;
}
