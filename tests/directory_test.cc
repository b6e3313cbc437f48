#include "core/directory.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "topology/planetlab.h"

namespace tmesh {
namespace {

PlanetLabNetwork MakeNet(int hosts, std::uint64_t seed = 5) {
  PlanetLabParams p;
  p.hosts = hosts;
  p.seed = seed;
  return PlanetLabNetwork(p);
}

UserId RandomId(Rng& rng, int d, int b) {
  UserId id;
  for (int i = 0; i < d; ++i) {
    id.Append(static_cast<int>(rng.UniformInt(0, b - 1)));
  }
  return id;
}

TEST(Directory, AddMemberBuildsMutualEntries) {
  auto net = MakeNet(4);
  Directory dir(net, GroupParams{2, 4, 2}, 0);
  dir.AddMember(UserId{0, 0}, 1, 10);
  dir.AddMember(UserId{0, 1}, 2, 20);
  dir.AddMember(UserId{2, 0}, 3, 30);

  // [0,0] sees [0,1] at row 1 digit 1, and [2,0] at row 0 digit 2.
  const NeighborTable& t = dir.TableOf(UserId{0, 0});
  EXPECT_TRUE(t.ContainsNeighbor(1, 1, UserId{0, 1}));
  EXPECT_TRUE(t.ContainsNeighbor(0, 2, UserId{2, 0}));
  // And vice versa.
  EXPECT_TRUE(dir.TableOf(UserId{2, 0}).ContainsNeighbor(0, 0, UserId{0, 0}));
  dir.CheckKConsistency();
}

TEST(Directory, ServerTableTracksClosestPerDigit) {
  auto net = MakeNet(6);
  Directory dir(net, GroupParams{2, 4, 1}, 0);
  dir.AddMember(UserId{1, 0}, 1, 1);
  dir.AddMember(UserId{1, 1}, 2, 2);
  dir.AddMember(UserId{1, 2}, 3, 3);
  const auto* e = dir.ServerTable().entry(0, 1);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->size(), 1u);  // K = 1
  // The retained record is the closest of the three to the server.
  double best = std::min({net.RttHosts(0, 1), net.RttHosts(0, 2),
                          net.RttHosts(0, 3)});
  EXPECT_DOUBLE_EQ((*e)[0].rtt_ms, best);
}

TEST(Directory, RemoveMemberRefillsEntries) {
  auto net = MakeNet(8);
  // K = 1 so the single record's removal forces a refill.
  Directory dir(net, GroupParams{2, 4, 1}, 0);
  dir.AddMember(UserId{0, 0}, 1, 1);
  dir.AddMember(UserId{1, 0}, 2, 2);
  dir.AddMember(UserId{1, 1}, 3, 3);
  dir.AddMember(UserId{1, 2}, 4, 4);
  dir.CheckKConsistency();

  const NeighborTable& t = dir.TableOf(UserId{0, 0});
  const auto* e = t.entry(0, 1);
  ASSERT_NE(e, nullptr);
  UserId present = (*e)[0].id;
  dir.RemoveMember(present);
  // Entry refilled from the two remaining members of the [1]-subtree.
  const auto* e2 = dir.TableOf(UserId{0, 0}).entry(0, 1);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(e2->size(), 1u);
  EXPECT_NE((*e2)[0].id, present);
  dir.CheckKConsistency();
}

TEST(Directory, QueryRecordsReturnsMatchingPrefixes) {
  auto net = MakeNet(5);
  Directory dir(net, GroupParams{2, 4, 4}, 0);
  dir.AddMember(UserId{0, 0}, 1, 1);
  dir.AddMember(UserId{0, 1}, 2, 2);
  dir.AddMember(UserId{1, 0}, 3, 3);

  std::vector<NeighborRecord> recs;
  dir.VisitQueryRecords(UserId{0, 0}, DigitString{0},
                        [&](const NeighborRecord& r) { recs.push_back(r); });
  // Its own record first, then [0,1]; never [1,0].
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].id, (UserId{0, 0}));
  EXPECT_EQ(recs[0].host, 1);
  EXPECT_EQ(recs[1].id, (UserId{0, 1}));

  // A prefix the queried member lies outside: only matching neighbors.
  recs.clear();
  dir.VisitQueryRecords(UserId{0, 0}, DigitString{1},
                        [&](const NeighborRecord& r) { recs.push_back(r); });
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].id, (UserId{1, 0}));
}

TEST(Directory, RejectsDuplicatesAndUnknowns) {
  auto net = MakeNet(4);
  Directory dir(net, GroupParams{2, 4, 2}, 0);
  dir.AddMember(UserId{0, 0}, 1, 1);
  EXPECT_THROW(dir.AddMember(UserId{0, 0}, 2, 2), std::logic_error);
  EXPECT_THROW(dir.AddMember(UserId{0, 1}, 1, 2), std::logic_error);  // host reuse
  EXPECT_THROW(dir.RemoveMember(UserId{3, 3}), std::logic_error);
  EXPECT_THROW(dir.AddMember(UserId{1, 1}, 0, 1), std::logic_error);  // server host
}

TEST(Directory, FailureThenRepairRestoresConsistency) {
  auto net = MakeNet(10);
  Directory dir(net, GroupParams{2, 4, 2}, 0);
  Rng rng(3);
  std::vector<UserId> ids;
  for (HostId h = 1; h < 10; ++h) {
    UserId id;
    do {
      id = RandomId(rng, 2, 4);
    } while (dir.Contains(id));
    dir.AddMember(id, h, h);
    ids.push_back(id);
  }
  dir.CheckKConsistency();

  UserId failed = ids[4];
  dir.MarkFailed(failed);
  EXPECT_FALSE(dir.IsAlive(failed));
  EXPECT_TRUE(dir.Contains(failed));
  EXPECT_EQ(dir.alive_count(), 8);

  dir.RepairFailure(failed);
  EXPECT_FALSE(dir.Contains(failed));
  dir.CheckKConsistency();
}

TEST(Directory, HostIndexRoundTrip) {
  auto net = MakeNet(4);
  Directory dir(net, GroupParams{2, 4, 2}, 0);
  dir.AddMember(UserId{1, 2}, 3, 5);
  ASSERT_NE(dir.IdOfHost(3), nullptr);
  EXPECT_EQ(*dir.IdOfHost(3), (UserId{1, 2}));
  EXPECT_EQ(dir.IdOfHost(2), nullptr);
  EXPECT_EQ(dir.HostOf(UserId{1, 2}), 3);
}

// Definition 3 (K-consistency) holds through arbitrary join/leave churn.
struct ChurnShape {
  int depth;
  int base;
  int capacity;
  int hosts;
};

class DirectoryChurnTest : public ::testing::TestWithParam<ChurnShape> {};

TEST_P(DirectoryChurnTest, KConsistencyUnderRandomChurn) {
  const ChurnShape shape = GetParam();
  auto net = MakeNet(shape.hosts, 17);
  Directory dir(net, GroupParams{shape.depth, shape.base, shape.capacity}, 0);
  Rng rng(shape.hosts * 31ull + static_cast<std::uint64_t>(shape.base));

  std::vector<UserId> present;
  std::vector<HostId> free_hosts;
  for (HostId h = 1; h < shape.hosts; ++h) free_hosts.push_back(h);

  for (int step = 0; step < 300; ++step) {
    bool join = present.empty() ||
                (!free_hosts.empty() && rng.Bernoulli(0.6));
    if (join) {
      UserId id = RandomId(rng, shape.depth, shape.base);
      if (dir.Contains(id)) continue;
      HostId h = free_hosts.back();
      free_hosts.pop_back();
      dir.AddMember(id, h, step);
      present.push_back(id);
    } else {
      std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(present.size()) - 1));
      free_hosts.push_back(dir.HostOf(present[i]));
      dir.RemoveMember(present[i]);
      present.erase(present.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (step % 10 == 0) {
      dir.CheckKConsistency();
      dir.CheckIndexIntegrity();
    }
  }
  dir.CheckKConsistency();
  dir.CheckIndexIntegrity();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DirectoryChurnTest,
    ::testing::Values(ChurnShape{2, 4, 1, 20}, ChurnShape{2, 4, 2, 30},
                      ChurnShape{3, 4, 2, 40}, ChurnShape{3, 8, 4, 50},
                      ChurnShape{5, 256, 4, 40}));

// ---------------------------------------------------------------------------
// Differential equivalence: the indexed admission path and the retained O(N)
// scan-reference path implement one discipline and must produce byte-identical
// neighbor tables (records, order, RTTs) through arbitrary churn, including
// failure windows. Style follows the PR-6 seed-tree differential suite.
// ---------------------------------------------------------------------------

void ExpectTablesEqual(const NeighborTable& a, const NeighborTable& b) {
  ASSERT_EQ(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    const auto& ra = a.row(i);
    const auto& rb = b.row(i);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << i;
    auto itb = rb.begin();
    for (const auto& [digit, ea] : ra) {
      ASSERT_EQ(digit, itb->first) << "row " << i;
      const NeighborTable::Entry& eb = itb->second;
      ASSERT_EQ(ea.size(), eb.size()) << "row " << i << " digit " << digit;
      for (std::size_t r = 0; r < ea.size(); ++r) {
        ASSERT_EQ(ea[r].id, eb[r].id) << "row " << i << " digit " << digit;
        ASSERT_EQ(ea[r].host, eb[r].host);
        ASSERT_EQ(ea[r].join_time, eb[r].join_time);
        ASSERT_EQ(ea[r].rtt_ms, eb[r].rtt_ms);  // bitwise: same probe source
      }
      ++itb;
    }
  }
}

void ExpectDirectoriesEqual(const Directory& a, const Directory& b) {
  ASSERT_EQ(a.member_count(), b.member_count());
  ASSERT_EQ(a.alive_count(), b.alive_count());
  auto itb = b.members().begin();
  for (const auto& [id, ma] : a.members()) {
    ASSERT_EQ(id, itb->first);
    ASSERT_EQ(ma.alive, itb->second.alive);
    ExpectTablesEqual(ma.table, itb->second.table);
    ++itb;
  }
  ExpectTablesEqual(a.ServerTable(), b.ServerTable());
}

struct DiffShape {
  int depth;
  int base;
  int capacity;
  int hosts;
  double fail_p;
};

class DirectoryDifferentialTest : public ::testing::TestWithParam<DiffShape> {};

TEST_P(DirectoryDifferentialTest, IndexedMatchesScanReferenceByteForByte) {
  const DiffShape shape = GetParam();
  auto net = MakeNet(shape.hosts, 23);
  GroupParams params{shape.depth, shape.base, shape.capacity};
  Directory indexed(net, params, 0,
                    AdmissionOptions{AdmissionPolicy::kIndexed});
  Directory scan(net, params, 0,
                 AdmissionOptions{AdmissionPolicy::kScanReference});
  Rng rng(shape.hosts * 131ull + static_cast<std::uint64_t>(shape.base));

  std::vector<UserId> alive;
  std::vector<UserId> failed;
  std::vector<HostId> free_hosts;
  for (HostId h = 1; h < shape.hosts; ++h) free_hosts.push_back(h);

  for (int step = 0; step < 400; ++step) {
    double roll = rng.UniformReal(0.0, 1.0);
    if (!free_hosts.empty() && (alive.empty() || roll < 0.55)) {
      UserId id = RandomId(rng, shape.depth, shape.base);
      if (indexed.Contains(id)) continue;
      HostId h = free_hosts.back();
      free_hosts.pop_back();
      indexed.AddMember(id, h, step);
      scan.AddMember(id, h, step);
      alive.push_back(id);
    } else if (roll < 0.55 + shape.fail_p && !alive.empty()) {
      std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(alive.size()) - 1));
      indexed.MarkFailed(alive[i]);
      scan.MarkFailed(alive[i]);
      failed.push_back(alive[i]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll < 0.8 + shape.fail_p && !alive.empty()) {
      std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(alive.size()) - 1));
      free_hosts.push_back(indexed.HostOf(alive[i]));
      indexed.RemoveMember(alive[i]);
      scan.RemoveMember(alive[i]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (!failed.empty()) {
      std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(failed.size()) - 1));
      free_hosts.push_back(indexed.HostOf(failed[i]));
      indexed.RepairFailure(failed[i]);
      scan.RepairFailure(failed[i]);
      failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      continue;
    }

    ExpectDirectoriesEqual(indexed, scan);
    if (step % 20 == 0) {
      indexed.CheckIndexIntegrity();
      scan.CheckIndexIntegrity();
      if (failed.empty()) {
        indexed.CheckKConsistency();
        scan.CheckKConsistency();
      }
    }
  }
  ExpectDirectoriesEqual(indexed, scan);
  indexed.CheckIndexIntegrity();
  scan.CheckIndexIntegrity();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DirectoryDifferentialTest,
    ::testing::Values(DiffShape{2, 4, 2, 30, 0.15},
                      DiffShape{3, 8, 2, 40, 0.15},
                      DiffShape{4, 2, 1, 50, 0.2},   // deep binary: windows bind
                      DiffShape{3, 4, 4, 60, 0.15},  // K above default window/4
                      DiffShape{5, 256, 4, 40, 0.1}));

// ---------------------------------------------------------------------------
// Admission-complexity pins: on a warm directory, the indexed policy must
// touch O(base·digits·K) members per join/removal — not O(N) — while the
// scan reference walks essentially everyone. Counter-based, no wall clock.
// ---------------------------------------------------------------------------

TEST(DirectoryComplexity, IndexedAdmissionTouchesBoundedMembers) {
  constexpr int kDepth = 4, kBase = 8, kCap = 2;
  constexpr int kWarm = 1100, kProbe = 100;
  auto net = MakeNet(kWarm + kProbe + 2, 7);
  GroupParams params{kDepth, kBase, kCap};
  Directory indexed(net, params, 0,
                    AdmissionOptions{AdmissionPolicy::kIndexed});
  Directory scan(net, params, 0,
                 AdmissionOptions{AdmissionPolicy::kScanReference});

  Rng rng(41);
  std::vector<UserId> present;
  HostId next_host = 1;
  auto join_both = [&](int n) {
    for (int i = 0; i < n; ++i) {
      UserId id;
      do {
        id = RandomId(rng, kDepth, kBase);
      } while (indexed.Contains(id));
      indexed.AddMember(id, next_host, i);
      scan.AddMember(id, next_host, i);
      present.push_back(id);
      ++next_host;
    }
  };

  join_both(kWarm);
  const auto warm_idx = indexed.op_stats();
  const auto warm_scan = scan.op_stats();
  join_both(kProbe);
  const auto after_idx = indexed.op_stats();
  const auto after_scan = scan.op_stats();

  const double idx_touched =
      static_cast<double>(after_idx.holders_examined -
                          warm_idx.holders_examined) /
      kProbe;
  const double scan_touched =
      static_cast<double>(after_scan.holders_examined -
                          warm_scan.holders_examined) /
      kProbe;
  // The scan reference inspects every member per join...
  EXPECT_GT(scan_touched, kWarm * 0.9);
  // ...while the indexed path touches a population-independent set: the
  // underfull holders plus new-subtree broadcasts, O(base·digits·K) with
  // room for the broadcast constant.
  EXPECT_LE(idx_touched, 4.0 * kBase * kDepth * kCap);
  EXPECT_LT(idx_touched, kWarm / 8.0);
  EXPECT_LT(idx_touched * 8, scan_touched);
  // Windowed candidate probes are bounded by entries-per-table × window.
  const double idx_probes =
      static_cast<double>(after_idx.candidates_probed -
                          warm_idx.candidates_probed) /
      kProbe;
  EXPECT_LE(idx_probes, static_cast<double>(kDepth) * kBase * (4 * kCap));

  // Removal: the reverse holder index visits only actual holders.
  Rng pick(77);
  const int kDrop = 100;
  for (int i = 0; i < kDrop; ++i) {
    std::size_t j = static_cast<std::size_t>(
        pick.UniformInt(0, static_cast<std::int64_t>(present.size()) - 1));
    indexed.RemoveMember(present[j]);
    scan.RemoveMember(present[j]);
    present.erase(present.begin() + static_cast<std::ptrdiff_t>(j));
  }
  const auto rem_idx = indexed.op_stats();
  const auto rem_scan = scan.op_stats();
  const double idx_rm =
      static_cast<double>(rem_idx.holders_examined -
                          after_idx.holders_examined) /
      kDrop;
  const double scan_rm =
      static_cast<double>(rem_scan.holders_examined -
                          after_scan.holders_examined) /
      kDrop;
  EXPECT_GT(scan_rm, (kWarm + kProbe - kDrop) * 0.9);
  EXPECT_LE(idx_rm, 4.0 * kBase * kDepth * kCap);
  EXPECT_LT(idx_rm * 8, scan_rm);

  ExpectDirectoriesEqual(indexed, scan);
  indexed.CheckIndexIntegrity();
  indexed.CheckKConsistency();
}

TEST(Directory, AdmissionWindowBelowCapacityThrows) {
  auto net = MakeNet(4);
  AdmissionOptions narrow;
  narrow.window = 1;
  EXPECT_THROW(Directory(net, GroupParams{2, 4, 2}, 0, narrow),
               std::logic_error);
}

TEST(Directory, OpStatsCountJoinsAndRemovals) {
  auto net = MakeNet(6);
  Directory dir(net, GroupParams{2, 4, 2}, 0);
  dir.AddMember(UserId{0, 0}, 1, 1);
  dir.AddMember(UserId{1, 0}, 2, 2);
  dir.MarkFailed(UserId{1, 0});
  dir.RepairFailure(UserId{1, 0});
  dir.RemoveMember(UserId{0, 0});
  const auto& s = dir.op_stats();
  EXPECT_EQ(s.joins, 2);
  EXPECT_EQ(s.removals, 2);  // repair purge + graceful leave
}

}  // namespace
}  // namespace tmesh
