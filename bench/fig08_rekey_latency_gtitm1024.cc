// Fig. 8: rekey path latency on the GT-ITM topology, 1024 user joins.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{"fig08_rekey_latency_gtitm1024",
                             "Fig. 8: rekey path latency, GT-ITM 1024", 30};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);
  int runs = f.runs > 0 ? f.runs : (f.full ? 10 : 2);
  int users = f.users > 0 ? f.users : 1024;
  RunLatencyFigure("Fig 8: rekey path latency, GT-ITM, " +
                       std::to_string(users) + " joins",
                   Topo::kGtItm, users, /*data_path=*/false, runs, f.seed,
                   f.Threads(), &art);
  return 0;
}
