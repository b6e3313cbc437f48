#include "core/id_assignment.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "topology/gtitm.h"
#include "topology/planetlab.h"

namespace tmesh {
namespace {

IdAssignParams SmallParams(int d) {
  IdAssignParams p;
  p.collect_target = 4;
  p.thresholds_ms.assign(static_cast<std::size_t>(d - 1), 50.0);
  return p;
}

TEST(IdAssignment, FirstJoinGetsAllZeros) {
  PlanetLabParams np;
  np.hosts = 5;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{3, 4, 2}, 0);
  IdAssigner assigner(dir, SmallParams(3), 1);
  auto id = assigner.AssignId(1);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, (UserId{0, 0, 0}));
}

TEST(IdAssignment, ThresholdVectorMustMatchDepth) {
  PlanetLabParams np;
  np.hosts = 3;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{4, 4, 2}, 0);
  IdAssignParams p;
  p.thresholds_ms = {100.0};  // needs 3
  EXPECT_THROW(IdAssigner(dir, p, 1), std::logic_error);
}

TEST(IdAssignment, AssignedIdsAreUnique) {
  PlanetLabParams np;
  np.hosts = 60;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{3, 8, 4}, 0);
  IdAssigner assigner(dir, SmallParams(3), 7);
  std::set<UserId> seen;
  for (HostId h = 1; h < 60; ++h) {
    auto id = assigner.AssignId(h);
    ASSERT_TRUE(id.has_value());
    EXPECT_TRUE(seen.insert(*id).second) << "duplicate " << id->ToString();
    dir.AddMember(*id, h, h);
  }
  dir.CheckKConsistency();
}

TEST(IdAssignment, ExhaustsTinyIdSpaceGracefully) {
  PlanetLabParams np;
  np.hosts = 10;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{2, 2, 2}, 0);  // 4 possible IDs
  IdAssigner assigner(dir, SmallParams(2), 3);
  int assigned = 0;
  for (HostId h = 1; h < 10; ++h) {
    auto id = assigner.AssignId(h);
    if (!id.has_value()) break;
    dir.AddMember(*id, h, h);
    ++assigned;
  }
  EXPECT_EQ(assigned, 4);
  EXPECT_FALSE(assigner.AssignId(9).has_value());
}

TEST(IdAssignment, ProximityGroupsSameSiteUsers) {
  // With thresholds far above intra-site RTTs, users of one site should end
  // up sharing their first digits far more often than users of different
  // continents.
  PlanetLabParams np;
  np.hosts = 120;
  np.seed = 21;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{5, 256, 4}, 0);
  IdAssignParams p;
  p.collect_target = 10;
  p.thresholds_ms = {150.0, 30.0, 9.0, 3.0};  // the paper's defaults
  IdAssigner assigner(dir, p, 9);

  std::map<HostId, UserId> ids;
  for (HostId h = 1; h < 120; ++h) {
    auto id = assigner.AssignId(h);
    ASSERT_TRUE(id.has_value());
    dir.AddMember(*id, h, h);
    ids[h] = *id;
  }

  double same_site_cpl = 0, cross_continent_cpl = 0;
  int same_site_pairs = 0, cross_pairs = 0;
  for (HostId a = 1; a < 120; ++a) {
    for (HostId b = a + 1; b < 120; ++b) {
      int cpl = ids[a].CommonPrefixLen(ids[b]);
      if (net.site_of(a) == net.site_of(b)) {
        same_site_cpl += cpl;
        ++same_site_pairs;
      } else if (net.continent_of(a) != net.continent_of(b)) {
        cross_continent_cpl += cpl;
        ++cross_pairs;
      }
    }
  }
  ASSERT_GT(same_site_pairs, 0);
  ASSERT_GT(cross_pairs, 0);
  same_site_cpl /= same_site_pairs;
  cross_continent_cpl /= cross_pairs;
  // Same-site users share long prefixes; cross-continent users almost none.
  EXPECT_GT(same_site_cpl, 2.0);
  EXPECT_LT(cross_continent_cpl, 1.0);
}

TEST(IdAssignment, StatsCountProbes) {
  PlanetLabParams np;
  np.hosts = 40;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{3, 16, 4}, 0);
  IdAssigner assigner(dir, SmallParams(3), 5);
  IdAssignStats stats;
  for (HostId h = 1; h < 40; ++h) {
    auto id = assigner.AssignId(h, &stats);
    ASSERT_TRUE(id.has_value());
    dir.AddMember(*id, h, h);
  }
  // The last joiner of a populated group must have probed someone.
  EXPECT_GT(stats.queries, 0);
  EXPECT_GT(stats.rtt_probes, 0);
}

TEST(IdAssignment, ServerTailWhenNobodyIsClose) {
  // Thresholds of 0 ms force the "not close to anyone" path: the server
  // assigns a fresh subtree at digit 0, so every user gets its own level-1
  // subtree until the digits run out.
  PlanetLabParams np;
  np.hosts = 12;
  PlanetLabNetwork net(np);
  Directory dir(net, GroupParams{3, 16, 4}, 0);
  IdAssignParams p;
  p.collect_target = 4;
  p.thresholds_ms = {0.0, 0.0};
  IdAssigner assigner(dir, p, 5);
  std::set<int> first_digits;
  for (HostId h = 1; h < 12; ++h) {
    IdAssignStats stats;
    auto id = assigner.AssignId(h, &stats);
    ASSERT_TRUE(id.has_value());
    if (h > 1) {
      EXPECT_TRUE(stats.server_assigned_tail);
    }
    dir.AddMember(*id, h, h);
    first_digits.insert(id->digit(0));
  }
  EXPECT_EQ(first_digits.size(), 11u);
}

// Churn golden: every ID AssignId hands out and every IdAssignStats field,
// over joins, graceful leaves, and crashed (MarkFailed) members whose records
// stay in other members' tables until RepairFailure. Each join's line is
// folded into one FNV-1a digest; the totals make a mismatch easier to read.
struct ChurnGolden {
  std::uint64_t digest = 1469598103934665603ull;
  long joins = 0;
  long queries = 0;
  long rtt_probes = 0;
  long self_digits = 0;
  long server_tails = 0;
};

ChurnGolden RunAssignmentChurn(const Network& net, const GroupParams& group,
                               const IdAssignParams& params,
                               std::uint64_t seed, int ops, int max_members) {
  Directory dir(net, group, 0);
  IdAssigner assigner(dir, params, seed);
  Rng rng(seed * 31 + 7);
  std::vector<HostId> free_hosts;
  for (HostId h = net.host_count() - 1; h >= 1; --h) free_hosts.push_back(h);
  std::vector<UserId> failed;  // crashed, not yet repaired
  ChurnGolden g;
  auto pick_alive = [&] {
    const std::vector<UserId> alive = dir.AliveMembers();
    return alive[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(alive.size()) - 1))];
  };
  for (int op = 0; op < ops; ++op) {
    const double r = rng.UniformReal(0.0, 1.0);
    const bool can_join =
        !free_hosts.empty() && dir.member_count() < max_members;
    if (can_join && (dir.alive_count() < 8 || r < 0.55)) {
      const std::size_t k = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(free_hosts.size()) - 1));
      const HostId h = free_hosts[k];
      free_hosts[k] = free_hosts.back();
      free_hosts.pop_back();
      IdAssignStats st;
      std::optional<UserId> id = assigner.AssignId(h, &st);
      EXPECT_TRUE(id.has_value());
      if (!id.has_value()) return g;
      const std::string line =
          std::to_string(h) + " " + id->ToString() + " " +
          std::to_string(st.queries) + " " + std::to_string(st.rtt_probes) +
          " " + std::to_string(st.digits_self_determined) + " " +
          (st.server_assigned_tail ? "1" : "0") + "\n";
      for (char c : line) {
        g.digest ^= static_cast<unsigned char>(c);
        g.digest *= 1099511628211ull;
      }
      ++g.joins;
      g.queries += st.queries;
      g.rtt_probes += st.rtt_probes;
      g.self_digits += st.digits_self_determined;
      g.server_tails += st.server_assigned_tail ? 1 : 0;
      dir.AddMember(*id, h, op);
    } else if (r < 0.75 || (r < 0.88 && dir.alive_count() <= 2)) {
      const UserId id = pick_alive();
      free_hosts.push_back(dir.HostOf(id));
      dir.RemoveMember(id);
    } else if (r < 0.88) {
      const UserId id = pick_alive();
      dir.MarkFailed(id);
      failed.push_back(id);
    } else if (!failed.empty()) {
      const UserId id = failed.front();
      failed.erase(failed.begin());
      free_hosts.push_back(dir.HostOf(id));
      dir.RepairFailure(id);
    }
  }
  return g;
}

TEST(IdAssignment, ChurnGoldenGtItm) {
  // The paper's parameters (D=5, B=256, K=4, P=10, F=90, R=(150,30,9,3) ms)
  // on a ~1000-router transit-stub graph.
  GtItmParams tp;
  tp.seed = 17;
  tp.transit_domains = 4;
  tp.transit_routers_per_domain = 4;
  GtItmNetwork net(tp, 601, 19);
  const ChurnGolden g =
      RunAssignmentChurn(net, GroupParams{5, 256, 4}, IdAssignParams{}, 3,
                         900, 600);
  EXPECT_EQ(g.digest, 17263555415284305924ull);
  EXPECT_EQ(g.joins, 486);
  EXPECT_EQ(g.queries, 13887);
  EXPECT_EQ(g.rtt_probes, 37838);
  EXPECT_EQ(g.self_digits, 1770);
  EXPECT_EQ(g.server_tails, 129);
}

TEST(IdAssignment, ChurnGoldenPlanetLabSmallIdSpace) {
  // A 3-digit base-4 ID space (64 IDs) that churn keeps nearly full (at
  // most 56 members, live or crashed), so the key server's tail and
  // footnote-3 fallbacks run often.
  PlanetLabParams np;
  np.hosts = 90;
  np.seed = 23;
  PlanetLabNetwork net(np);
  IdAssignParams p = SmallParams(3);
  const ChurnGolden g =
      RunAssignmentChurn(net, GroupParams{3, 4, 2}, p, 11, 700, 56);
  EXPECT_EQ(g.digest, 2232587784617621964ull);
  EXPECT_EQ(g.joins, 325);
  EXPECT_EQ(g.queries, 2077);
  EXPECT_EQ(g.rtt_probes, 5677);
  EXPECT_EQ(g.self_digits, 234);
  EXPECT_EQ(g.server_tails, 207);
}

}  // namespace
}  // namespace tmesh
