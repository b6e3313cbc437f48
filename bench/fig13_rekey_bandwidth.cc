// Fig. 13: rekey bandwidth overhead under the seven protocols of Table 2.
// Inverse CDFs (tail) of encryptions received per user, forwarded per user,
// and carried per network link, after a rekey interval with 256 joins and
// 256 leaves in a 1024-user group on GT-ITM.
#include <cstdio>

#include "bench_common.h"
#include "protocols/rekey_protocols.h"

int main(int argc, char** argv) {
  using namespace tmesh;
  using namespace tmesh::bench;
  constexpr FigureSpec kSpec{
      "fig13_rekey_bandwidth",
      "Fig. 13: rekey bandwidth under the Table-2 protocols", 80};
  Flags f = Flags::Parse(kSpec, argc, argv);
  Artifacts art(f);

  BandwidthConfig cfg;
  cfg.metrics = art.metrics();
  cfg.seed = f.seed;
  cfg.initial_users = f.users > 0 ? f.users : 1024;
  cfg.batch_joins = cfg.initial_users / 4;
  cfg.batch_leaves = cfg.initial_users / 4;
  cfg.session = PaperSession();

  std::fprintf(stderr, "building %d-user group + %d joins/%d leaves...\n",
               cfg.initial_users, cfg.batch_joins, cfg.batch_leaves);
  RekeyBandwidthExperiment exp(cfg);
  auto reports = exp.Run();

  std::printf("# Fig 13: rekey bandwidth overhead; %d users, %d joins + %d "
              "leaves in one interval\n",
              cfg.initial_users, cfg.batch_joins, cfg.batch_leaves);
  for (const auto& r : reports) {
    std::printf("#   %-4s rekey message: %zu encryptions\n",
                r.protocol.c_str(), r.rekey_cost);
  }

  std::vector<std::pair<std::string, const InverseCdf*>> recv, fwd, link;
  std::vector<std::unique_ptr<InverseCdf>> keep;
  for (const auto& r : reports) {
    keep.push_back(std::make_unique<InverseCdf>(r.encs_received_per_user));
    recv.push_back({r.protocol, keep.back().get()});
    keep.push_back(std::make_unique<InverseCdf>(r.encs_forwarded_per_user));
    fwd.push_back({r.protocol, keep.back().get()});
    keep.push_back(std::make_unique<InverseCdf>(r.encs_per_link));
    link.push_back({r.protocol, keep.back().get()});
  }

  auto user_tail = TailFractions(0.90, 10);
  auto link_tail = TailFractions(0.96, 10);
  std::printf("\n");
  PrintInverseCdfTable(std::cout,
                       "Fig 13 (a): encryptions received per user (tail)",
                       user_tail, recv);
  std::printf("\n");
  PrintInverseCdfTable(std::cout,
                       "Fig 13 (b): encryptions forwarded per user (tail)",
                       user_tail, fwd);
  std::printf("\n");
  PrintInverseCdfTable(std::cout,
                       "Fig 13 (c): encryptions per network link (tail)",
                       link_tail, link);

  // The paper's headline: with splitting (P1'), >90% of users drop from
  // thousands of encryptions to fewer than ten.
  for (const auto& r : reports) {
    InverseCdf cdf(r.encs_received_per_user);
    std::printf("# %-4s users receiving <10 encs: %5.1f%%   p90: %8.0f   "
                "max: %8.0f\n",
                r.protocol.c_str(), 100 * cdf.FractionAtOrBelow(9.99),
                cdf.ValueAtFraction(0.90), cdf.ValueAtFraction(1.0));
  }
  art.Write();
  return 0;
}
