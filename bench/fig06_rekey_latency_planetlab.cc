// Fig. 6: rekey path latency on the PlanetLab topology, 226 user joins.
// Inverse CDFs (avg + 95th pct across runs) of user stress,
// application-layer delay, and RDP; T-mesh vs NICE.
//
// Paper: 100 runs. Default here: 10 (use --runs=100 / --full to match).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{"fig06_rekey_latency_planetlab",
                             "Fig. 6: rekey path latency, PlanetLab", 10};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);
  int runs = f.runs > 0 ? f.runs : (f.full ? 100 : 10);
  int users = f.users > 0 ? f.users : 226;
  RunLatencyFigure("Fig 6: rekey path latency, PlanetLab, " +
                       std::to_string(users) + " joins",
                   Topo::kPlanetLab, users, /*data_path=*/false, runs, f.seed,
                   f.Threads(), &art);
  return 0;
}
