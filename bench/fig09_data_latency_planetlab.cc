// Fig. 9: data path latency on the PlanetLab topology (random user sends).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{"fig09_data_latency_planetlab",
                             "Fig. 9: data path latency, PlanetLab", 40};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);
  int runs = f.runs > 0 ? f.runs : (f.full ? 100 : 10);
  int users = f.users > 0 ? f.users : 226;
  RunLatencyFigure("Fig 9: data path latency, PlanetLab, " +
                       std::to_string(users) + " joins",
                   Topo::kPlanetLab, users, /*data_path=*/true, runs, f.seed,
                   f.Threads(), &art);
  return 0;
}
