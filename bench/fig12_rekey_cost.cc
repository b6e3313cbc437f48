// Fig. 12: rekey cost as a function of the number of joins J and leaves L
// in one rekey interval, for 1024 initial users on GT-ITM.
//   (a) average rekey cost of the modified key tree;
//   (b) modified minus original (WGL degree-4, batch) key tree;
//   (c) modified with the cluster rekeying heuristic minus original.
//
// Paper: 20 runs, J,L in 0..1024. Default: 2 runs on a 0..1024 step-256
// grid (--full for the step-128 grid with 5 runs).
#include <cstdio>

#include "bench_common.h"
#include "protocols/rekey_cost_experiment.h"

int main(int argc, char** argv) {
  using namespace tmesh;
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{"fig12_rekey_cost",
                             "Fig. 12: rekey cost vs (J, L) batch shape", 70};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);

  RekeyCostConfig cfg;
  cfg.metrics = art.metrics();
  cfg.seed = f.seed;
  cfg.initial_users = f.users > 0 ? f.users : 1024;
  cfg.threads = f.Threads();
  cfg.session = PaperSession();
  if (f.full) {
    cfg.grid = {0, 128, 256, 384, 512, 640, 768, 896, 1024};
    cfg.runs = f.runs > 0 ? f.runs : 5;
  } else {
    cfg.grid = {0, 256, 512, 768, 1024};
    cfg.runs = f.runs > 0 ? f.runs : 2;
  }
  // Keep the grid within the population.
  for (int& g : cfg.grid) {
    if (g > cfg.initial_users) g = cfg.initial_users;
  }

  auto cells = RunRekeyCostExperiment(cfg);

  std::printf("# Fig 12: rekey cost vs (J, L); %d initial users, %d runs\n",
              cfg.initial_users, cfg.runs);
  std::printf("# (a) modified key tree  (b) modified - original  (c) "
              "modified+cluster - original\n");
  std::printf("%8s%8s%14s%14s%14s%16s%16s\n", "J", "L", "modified",
              "original", "cluster", "mod-orig", "cluster-orig");
  for (const auto& c : cells) {
    std::printf("%8d%8d%14.1f%14.1f%14.1f%16.1f%16.1f\n", c.joins, c.leaves,
                c.modified, c.original, c.cluster, c.modified - c.original,
                c.cluster - c.original);
  }
  std::printf(
      "\n# paper shape: (b) >= 0 everywhere (modified tree re-keys more); "
      "(c) < 0 when the\n# fraction of leaving users is small (non-leader "
      "churn is free under the heuristic).\n");
  art.Write();
  return 0;
}
