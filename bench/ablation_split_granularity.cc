// Ablation (§2.5): splitting granularity.
//
// "An alternative way is to split and re-compose the rekey message at
// packet level, instead of encryption level. In this case, the rekey
// bandwidth overhead would be larger." This bench quantifies the gap:
// encryption-level splitting vs packet-level at several packet sizes vs no
// splitting, for one heavy rekey interval.
#include <cstdio>
#include <iterator>
#include <string>

#include "bench_common.h"
#include "core/tmesh.h"
#include "sim/sim_metrics.h"

int main(int argc, char** argv) {
  using namespace tmesh;
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{
      "ablation_split_granularity",
      "Ablation: encryption-level vs packet-level splitting", 120};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);
  const int users = f.users > 0 ? f.users : 256;

  auto net = MakeNetwork(Topo::kGtItm, users + 1, f.seed);
  SessionConfig cfg = PaperSession();
  cfg.with_nice = false;
  cfg.seed = f.seed * 3 + 1;
  GroupSession session(*net, 0, cfg);
  Rng rng(f.seed * 7 + 5);
  for (HostId h = 1; h <= users; ++h) {
    if (!session.Join(h, h).has_value()) return 1;
  }
  session.FlushRekeyState();
  for (int i = 0; i < users / 4; ++i) {
    auto victim = session.directory().RandomAliveMember(rng);
    session.Leave(*victim);
  }
  RekeyMessage msg = session.key_tree().Rekey();

  std::printf("# Ablation: splitting granularity (GT-ITM, %d users, %d "
              "leaves, rekey message = %zu encryptions)\n",
              users, users / 4, msg.RekeyCost());
  std::printf("%-22s%14s%14s%14s%16s\n", "granularity", "encs_avg",
              "encs_p99", "encs_max", "total_enc_hops");

  struct Variant {
    const char* name;
    bool split;
    int packet;
  };
  const Variant variants[] = {
      {"per-encryption", true, 0},   {"packet=4", true, 4},
      {"packet=16", true, 16},       {"packet=64", true, 64},
      {"no splitting", false, 0},
  };
  // The five variants share the (now immutable) session, directory, and
  // rekey message; each replica reads them and multicasts on its own
  // worker-owned simulator. Concurrent RTT queries against the shared
  // GT-ITM network are safe (its SPT cache is lock-guarded). Rows print in
  // variant order regardless of --threads, and per-variant metrics merge in
  // the same order.
  struct RowOut {
    std::string row;
    MetricsRegistry reg;
  };
  ReplicaRunner runner(f.Threads());
  runner.Run(
      static_cast<int>(std::size(variants)),
      [&](ReplicaRunner::Replica& rep) {
        const Variant& v = variants[rep.index];
        RowOut out;
        TMesh tmesh(session.directory(), rep.sim);
        if (art.metrics() != nullptr) tmesh.SetMetrics(&out.reg);
        TMesh::Options opts;
        opts.split = v.split;
        opts.split_packet_encs = v.packet;
        auto res = tmesh.MulticastRekey(msg, opts);
        if (art.metrics() != nullptr) {
          tmesh.FlushMetrics();
          ExportSimMetrics(rep.sim, out.reg);
        }
        std::vector<double> encs;
        long long hops = 0;
        for (const auto& [id, info] : session.directory().members()) {
          (void)id;
          auto h = static_cast<std::size_t>(info.host);
          encs.push_back(static_cast<double>(res.member[h].encs_received));
          hops += res.member[h].encs_received;
        }
        char row[160];
        std::snprintf(row, sizeof(row), "%-22s%14.1f%14.0f%14.0f%16lld\n",
                      v.name, Mean(encs), Percentile(encs, 99),
                      Percentile(encs, 100), hops);
        out.row = row;
        return out;
      },
      [&](int, RowOut&& out) {
        std::fputs(out.row.c_str(), stdout);
        if (art.metrics() != nullptr) art.metrics()->MergeFrom(out.reg);
      });
  std::printf("\n# expected: bandwidth grows monotonically with packet size, "
              "from the per-encryption\n# optimum toward the no-splitting "
              "ceiling (§2.5).\n");
  art.Write();
  return 0;
}
