// Ablation (§1): concurrent rekey and data transport on bandwidth-limited
// access links — the paper's motivation for minimizing rekey bandwidth.
//
// "Bursty rekey traffic competes for available bandwidth with data traffic,
// and thus considerably increases the load of bandwidth-limited links ...
// Congestion at such an access link causes data losses for many downstream
// users." We model each user's uplink as a serializing queue and multicast
// a data message while a rekey burst is in flight, measuring how much the
// burst inflates data latency — with and without rekey-message splitting,
// across uplink speeds.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/tmesh.h"
#include "core/wire.h"
#include "sim/sim_metrics.h"

int main(int argc, char** argv) {
  using namespace tmesh;
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{
      "ablation_congestion",
      "Ablation: rekey/data interference on limited uplinks", 130};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);
  const int users = f.users > 0 ? f.users : 226;

  auto net = MakeNetwork(Topo::kPlanetLab, users + 1, f.seed);
  SessionConfig cfg = PaperSession();
  cfg.with_nice = false;
  cfg.seed = f.seed + 3;
  GroupSession session(*net, 0, cfg);
  Rng rng(f.seed + 11);
  for (HostId h = 1; h <= users; ++h) {
    if (!session.Join(h, h).has_value()) return 1;
  }
  session.FlushRekeyState();
  for (int i = 0; i < users / 2; ++i) {
    auto victim = session.directory().RandomAliveMember(rng);
    session.Leave(*victim);
  }
  RekeyMessage msg = session.key_tree().Rekey();
  auto sender = session.directory().RandomAliveMember(rng);

  std::printf("# Ablation: rekey/data interference on limited uplinks "
              "(PlanetLab, %d users,\n# rekey message = %zu encryptions, "
              "data message = 256 B)\n",
              users, msg.RekeyCost());
  std::printf("%12s%18s%22s%22s%14s\n", "uplink_kbps", "data_alone_ms",
              "data_w_full_rekey_ms", "data_w_split_rekey_ms",
              "split_gain");

  // One replica per uplink speed (the rows share only the immutable
  // session and rekey message); each row runs its three modes back-to-back
  // on the worker's simulator, Reset() between modes standing in for the
  // per-mode `Simulator sim;` the sequential loop constructed. Rows print
  // in speed order regardless of --threads.
  // Each row's metrics accumulate in a replica-local registry (all three
  // modes of the row) and merge in speed order — thread-count-independent.
  struct RowOut {
    std::string row;
    MetricsRegistry reg;
  };
  const std::vector<double> speeds = {64.0, 256.0, 1024.0, 10240.0};
  ReplicaRunner runner(f.Threads());
  runner.Run(
      static_cast<int>(speeds.size()),
      [&](ReplicaRunner::Replica& rep) {
        const double kbps = speeds[static_cast<std::size_t>(rep.index)];
        RowOut out;
        auto run = [&](int mode) {  // 0: data alone, 1: +full rekey, 2: +split
          rep.sim.Reset();
          TMesh tmesh(session.directory(), rep.sim);
          if (art.metrics() != nullptr) tmesh.SetMetrics(&out.reg);
          TMesh::UplinkModel up;
          up.kbps = kbps;
          up.data_bytes = 256;  // a small audio/control packet
          tmesh.SetUplinkModel(up);
          std::vector<TMesh::Handle> handles;
          if (mode > 0) {
            TMesh::Options ropts;
            ropts.split = mode == 2;
            handles.push_back(tmesh.BeginRekey(msg, ropts));
          }
          // Launch the data stream while the rekey burst is mid-flight
          // through the overlay. The burst's life is several times the
          // full message's serialization time (the server re-serializes
          // one copy per row-0 entry, and every forwarder re-serializes
          // downstream), so aim for the middle of that span; launching
          // right after the server's first copies instead makes the
          // overlap a knife-edge race against the much faster data wave.
          // msg_ms uses the exact wire sizes — the same accounting the
          // uplink model charges per packet.
          double msg_bytes = static_cast<double>(up.header_bytes);
          for (const Encryption& e : msg.encryptions) {
            msg_bytes += static_cast<double>(WireSize(e));
          }
          double msg_ms = msg_bytes * 8.0 / kbps;
          rep.sim.RunUntil(rep.sim.Now() + FromMillis(3.0 * msg_ms + 50.0));
          handles.push_back(tmesh.BeginData(*sender));
          rep.sim.Run();
          if (art.metrics() != nullptr) {
            tmesh.FlushMetrics();
            ExportSimMetrics(rep.sim, out.reg);
          }
          const TMesh::Result& data = handles.back().result();
          std::vector<double> delays;
          for (const auto& r : data.member) {
            if (r.copies > 0) delays.push_back(r.delay_ms);
          }
          return Percentile(delays, 95);
        };
        double alone = run(0);
        double full = run(1);
        double split = run(2);
        char row[160];
        std::snprintf(row, sizeof(row), "%12.0f%18.1f%22.1f%22.1f%13.1fx\n",
                      kbps, alone, full, split, full / split);
        out.row = row;
        return out;
      },
      [&](int, RowOut&& out) {
        std::fputs(out.row.c_str(), stdout);
        if (art.metrics() != nullptr) art.metrics()->MergeFrom(out.reg);
      });
  std::printf(
      "\n# expected: on congested uplinks (all but the fastest row) data "
      "forwarders are still\n# serializing the unsplit burst when the data "
      "wave passes, so data latency multiplies;\n# the split burst never "
      "interferes measurably — splitting shrinks each user's share to\n# a "
      "few encryptions, and per-source trees separate most remaining "
      "rekey/data\n# forwarders ('rekey transport and data transport choose "
      "different multicast trees\n# in T-mesh', §4.3).\n");
  art.Write();
  return 0;
}
