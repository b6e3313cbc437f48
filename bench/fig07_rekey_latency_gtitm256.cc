// Fig. 7: rekey path latency on the GT-ITM topology, 256 user joins.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{"fig07_rekey_latency_gtitm256",
                             "Fig. 7: rekey path latency, GT-ITM 256", 20};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);
  int runs = f.runs > 0 ? f.runs : (f.full ? 20 : 5);
  int users = f.users > 0 ? f.users : 256;
  RunLatencyFigure("Fig 7: rekey path latency, GT-ITM, " +
                       std::to_string(users) + " joins",
                   Topo::kGtItm, users, /*data_path=*/false, runs, f.seed,
                   f.Threads(), &art);
  return 0;
}
