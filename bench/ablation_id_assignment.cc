// Ablation (§2.6): how much of the splitting scheme's efficiency comes from
// the proximity-aware user-ID assignment?
//
// "If each user randomly chooses its ID, then each user has a random
// position in the ID tree ... their shared encryptions have to be
// duplicated once the multicast starts." We compare three ID assignment
// policies over the same workload:
//   distributed  — the paper's 4-step protocol (§3.1)
//   centralized  — the §5 GNP-style server-side variant (no probe traffic)
//   random       — location-independent IDs (PRR/Pastry/Tapestry style)
// and report rekey latency (RDP), split-rekey bandwidth, and join cost.
#include <cstdio>
#include <iterator>
#include <string>

#include "bench_common.h"
#include "core/tmesh.h"
#include "sim/sim_metrics.h"
#include "topology/gnp.h"

int main(int argc, char** argv) {
  using namespace tmesh;
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{"ablation_id_assignment",
                             "Ablation: proximity-aware vs random user IDs",
                             110};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);
  const int users = f.users > 0 ? f.users : 226;
  const int churn = users / 8;

  struct Mode {
    const char* name;
    bool centralized;
    bool random;
    bool gnp;
  };
  const Mode modes[] = {{"distributed", false, false, false},
                        {"centralized", true, false, false},
                        {"gnp-coords", true, false, true},
                        {"random-ids", false, true, false}};

  std::printf("# Ablation: ID assignment policy (PlanetLab, %d users, %d "
              "leaves in the measured interval)\n",
              users, churn);
  std::printf("%-14s%10s%10s%12s%12s%12s%12s%12s%12s\n", "policy", "rdp_p50",
              "rdp_p95", "rekey_cost", "encs_avg", "encs_max", "srv_fanout",
              "stress_max", "quer/join");

  // One replica per policy; every replica builds its own network, session,
  // and (via the worker) simulator, so the four policies run concurrently.
  // Each returns its formatted table row; rows print in policy order, and
  // per-policy metrics merge in the same order.
  struct RowOut {
    std::string row;
    MetricsRegistry reg;
  };
  ReplicaRunner runner(f.Threads());
  runner.Run(
      static_cast<int>(std::size(modes)),
      [&](ReplicaRunner::Replica& rep) {
        const Mode& mode = modes[rep.index];
        auto net = MakeNetwork(Topo::kPlanetLab, users + 1, f.seed);
        std::unique_ptr<GnpModel> gnp;
        if (mode.gnp) {
          GnpModel::Params gp;
          gp.seed = f.seed + 7;
          gnp = std::make_unique<GnpModel>(*net, gp);
        }
        SessionConfig cfg = PaperSession();
        cfg.with_nice = false;
        cfg.centralized_assignment = mode.centralized;
        cfg.random_ids = mode.random;
        cfg.assign.gnp = gnp.get();
        cfg.seed = f.seed * 5 + 1;
        GroupSession session(*net, 0, cfg);
        Rng rng(f.seed * 11 + 2);

        double queries = 0;
        for (HostId h = 1; h <= users; ++h) {
          IdAssignStats stats;
          TMESH_CHECK_MSG(session.Join(h, h, &stats).has_value(),
                          "ID space exhausted");
          queries += stats.queries;
        }
        session.FlushRekeyState();
        for (int i = 0; i < churn; ++i) {
          auto victim = session.directory().RandomAliveMember(rng);
          session.Leave(*victim);
        }
        RekeyMessage msg = session.key_tree().Rekey();

        RowOut out;
        TMesh tmesh(session.directory(), rep.sim);
        if (art.metrics() != nullptr) tmesh.SetMetrics(&out.reg);
        TMesh::Options opts;
        opts.split = true;
        auto res = tmesh.MulticastRekey(msg, opts);
        if (art.metrics() != nullptr) {
          tmesh.FlushMetrics();
          ExportSimMetrics(rep.sim, out.reg);
        }

        std::vector<double> rdp, encs, stress;
        int srv_fanout = 0;
        for (const auto& [id, info] : session.directory().members()) {
          (void)id;
          auto h = static_cast<std::size_t>(info.host);
          rdp.push_back(res.member[h].rdp);
          encs.push_back(static_cast<double>(res.member[h].encs_received));
          stress.push_back(static_cast<double>(res.member[h].stress));
          if (res.member[h].forward_level == 1) ++srv_fanout;
        }
        char row[256];
        std::snprintf(row, sizeof(row),
                      "%-14s%10.2f%10.2f%12zu%12.1f%12.0f%12d%12.0f%12.1f\n",
                      mode.name, Percentile(rdp, 50), Percentile(rdp, 95),
                      msg.RekeyCost(), Mean(encs), Percentile(encs, 100),
                      srv_fanout, Percentile(stress, 100), queries / users);
        out.row = row;
        return out;
      },
      [&](int, RowOut&& out) {
        std::fputs(out.row.c_str(), stdout);
        if (art.metrics() != nullptr) art.metrics()->MergeFrom(out.reg);
      });
  std::printf(
      "\n# expected (§2.6): random IDs flatten the ID tree — the rekey "
      "message balloons and the\n# key server must unicast to hundreds of "
      "direct children (srv_fanout), the congestion\n# problem the "
      "proximity scheme exists to avoid; centralized matches distributed "
      "at zero\n# query cost; GNP coordinates (§5) keep grouping quality with zero probes AND zero\n# server-side measurements.\n");
  art.Write();
  return 0;
}
