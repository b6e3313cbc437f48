// Fig. 11: data path latency on the GT-ITM topology, 1024 user joins.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{"fig11_data_latency_gtitm1024",
                             "Fig. 11: data path latency, GT-ITM 1024", 60};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);
  int runs = f.runs > 0 ? f.runs : (f.full ? 10 : 2);
  int users = f.users > 0 ? f.users : 1024;
  RunLatencyFigure("Fig 11: data path latency, GT-ITM, " +
                       std::to_string(users) + " joins",
                   Topo::kGtItm, users, /*data_path=*/true, runs, f.seed,
                   f.Threads(), &art);
  return 0;
}
