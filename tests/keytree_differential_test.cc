// Differential equivalence suite: the flat WglKeyTree / ModifiedKeyTree
// against the frozen seed baselines (keytree/seed_wgl_key_tree.h,
// keytree/seed_modified_key_tree.h).
//
// The flat rewrites promise *byte-identical* observable behavior — the same
// RekeyMessage (content and order), KeysHeld, PathNodes, and key versions —
// on every schedule where both can run. This suite drives both
// implementations through 56 randomized churn schedules (joins, leaves,
// failures-as-leaves; WGL degrees 2/3/4/8; modified-tree shapes up to
// depth 5 × base 6; serial and sharded rekeying), a high-fan-out schedule
// of hundreds of changes per interval, and the streaming-rekey edge cases,
// asserting equality at every interval. It also pins the complexity
// contract of the flat layout via operation counters: rekey work,
// placement scans, and MembersNeeding visits must track the affected
// subtree, not the population.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/modified_key_tree.h"
#include "keytree/seed_modified_key_tree.h"
#include "keytree/seed_wgl_key_tree.h"
#include "keytree/wgl_key_tree.h"

namespace tmesh {
namespace {

std::vector<MemberId> Iota(int n, int from = 0) {
  std::vector<MemberId> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = from + i;
  return v;
}

void ExpectSameMessage(const RekeyMessage& flat, const RekeyMessage& seed,
                       const char* what) {
  ASSERT_EQ(flat.encryptions.size(), seed.encryptions.size()) << what;
  for (std::size_t i = 0; i < flat.encryptions.size(); ++i) {
    const Encryption& a = flat.encryptions[i];
    const Encryption& b = seed.encryptions[i];
    ASSERT_TRUE(a == b) << what << ": encryption " << i << " differs — flat ("
                        << a.enc_key_id.ToString() << " v"
                        << a.enc_key_version << " -> "
                        << a.new_key_id.ToString() << " v" << a.new_key_version
                        << " wgl " << a.wgl_enc_node << "/" << a.wgl_new_node
                        << ") vs seed (" << b.enc_key_id.ToString() << " v"
                        << b.enc_key_version << " -> "
                        << b.new_key_id.ToString() << " v" << b.new_key_version
                        << " wgl " << b.wgl_enc_node << "/" << b.wgl_new_node
                        << ")";
  }
}

// ---------------------------------------------------------------------------
// WGL tree: 32 randomized schedules (4 degrees x 8 seeds), 40 intervals
// each, three starting modes (balanced build, incremental build, empty).
// ---------------------------------------------------------------------------

void CompareWglState(const WglKeyTree& flat, const SeedWglKeyTree& seed,
                     const std::vector<MemberId>& present) {
  ASSERT_EQ(flat.member_count(), seed.member_count());
  for (MemberId m : present) {
    ASSERT_TRUE(flat.Contains(m) && seed.Contains(m));
    ASSERT_EQ(flat.KeysHeld(m), seed.KeysHeld(m)) << "member " << m;
    ASSERT_EQ(flat.PathNodes(m), seed.PathNodes(m)) << "member " << m;
  }
  flat.CheckInvariants();
  seed.CheckInvariants();
}

class WglDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WglDifferentialTest, FortyIntervalChurnScheduleMatchesSeed) {
  auto [degree, schedule_seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(degree * 1000 + schedule_seed));
  WglKeyTree flat(degree);
  SeedWglKeyTree seed(degree);
  std::vector<MemberId> present;
  int next_id = 0;

  // Vary the starting mode across schedules.
  switch (schedule_seed % 3) {
    case 0: {  // full balanced start at degree^3
      int n = degree * degree * degree;
      std::vector<MemberId> init = Iota(n);
      next_id = n;
      flat.BuildFullBalanced(init);
      seed.BuildFullBalanced(init);
      present = init;
      break;
    }
    case 1: {  // incremental start at a non-power population
      std::vector<MemberId> init = Iota(degree * degree + degree / 2 + 1);
      next_id = static_cast<int>(init.size());
      flat.BuildIncremental(init);
      seed.BuildIncremental(init);
      present = init;
      break;
    }
    default:  // empty start: the first interval creates the root
      break;
  }
  CompareWglState(flat, seed, present);

  for (int interval = 0; interval < 40; ++interval) {
    int nj = static_cast<int>(rng.UniformInt(0, 6));
    int nl = static_cast<int>(
        rng.UniformInt(0, std::min<std::int64_t>(6, present.size())));
    std::vector<MemberId> joins;
    for (int i = 0; i < nj; ++i) joins.push_back(next_id++);
    std::vector<MemberId> shuffled = present;
    rng.Shuffle(shuffled);
    std::vector<MemberId> leaves(shuffled.begin(), shuffled.begin() + nl);

    RekeyMessage flat_msg = flat.Rekey(joins, leaves);
    RekeyMessage seed_msg = seed.Rekey(joins, leaves);
    ExpectSameMessage(flat_msg, seed_msg, "wgl interval");

    for (MemberId m : leaves) {
      present.erase(std::find(present.begin(), present.end(), m));
    }
    for (MemberId m : joins) present.push_back(m);
    CompareWglState(flat, seed, present);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, WglDifferentialTest,
                         ::testing::Combine(::testing::Values(2, 3, 4, 8),
                                            ::testing::Range(0, 8)));

// ---------------------------------------------------------------------------
// Streaming-vs-materialized edge cases. The seed IS the old
// set-materializing path (bitmap over all node ids, O(N) sweep), so these
// pin that the streamed marked-subtree walk emits exactly the same
// encryptions in the cases where the two approaches are easiest to get
// to disagree.
// ---------------------------------------------------------------------------

TEST(WglStreamingRekey, EmptyBatchEmitsNothing) {
  WglKeyTree flat(4);
  SeedWglKeyTree seed(4);
  flat.BuildFullBalanced(Iota(16));
  seed.BuildFullBalanced(Iota(16));
  ExpectSameMessage(flat.Rekey({}, {}), seed.Rekey({}, {}), "empty batch");
  ASSERT_EQ(flat.Rekey({}, {}).RekeyCost(), 0u);
}

TEST(WglStreamingRekey, AllLeaveDrainsIdentically) {
  // Drain to empty: the last detach leaves a childless root; the streamed
  // walk must still renew the same surviving k-nodes the bitmap sweep did,
  // in the same order.
  WglKeyTree flat(3);
  SeedWglKeyTree seed(3);
  flat.BuildFullBalanced(Iota(27));
  seed.BuildFullBalanced(Iota(27));
  ExpectSameMessage(flat.Rekey({}, Iota(27)), seed.Rekey({}, Iota(27)),
                    "all-leave");
  ASSERT_EQ(flat.member_count(), 0);
  flat.CheckInvariants();
  // Regrow over the freed ids: allocation order (LIFO free list) must match.
  ExpectSameMessage(flat.Rekey(Iota(5, 100), {}), seed.Rekey(Iota(5, 100), {}),
                    "regrow");
  flat.CheckInvariants();
  seed.CheckInvariants();
}

TEST(WglStreamingRekey, JoinFillsDepartedSlotIdentically) {
  // J == L: every join reuses a departed leaf position; the only marks are
  // the reused leaves themselves.
  WglKeyTree flat(4);
  SeedWglKeyTree seed(4);
  flat.BuildFullBalanced(Iota(64));
  seed.BuildFullBalanced(Iota(64));
  ExpectSameMessage(flat.Rekey({100, 101, 102}, {5, 21, 40}),
                    seed.Rekey({100, 101, 102}, {5, 21, 40}),
                    "slot reuse");
  ASSERT_EQ(flat.LeafDepth(100), seed.LeafDepth(100));
}

TEST(WglStreamingRekey, PruneThenSplitReusesIdsIdentically) {
  // Leaves prune a whole subtree (freeing k-node ids), then extra joins
  // split shallow leaves — the new nodes must take the same recycled ids
  // and the marks on since-freed ids must resolve the same way.
  WglKeyTree flat(2);
  SeedWglKeyTree seed(2);
  flat.BuildFullBalanced(Iota(16));
  seed.BuildFullBalanced(Iota(16));
  std::vector<MemberId> leaves = {0, 1, 2, 3};           // kills two k-nodes
  std::vector<MemberId> joins = {50, 51, 52, 53, 54, 55};  // 2 reuse + 4 new
  ExpectSameMessage(flat.Rekey(joins, leaves), seed.Rekey(joins, leaves),
                    "prune+split");
  for (MemberId m : joins) {
    ASSERT_EQ(flat.PathNodes(m), seed.PathNodes(m));
  }
  flat.CheckInvariants();
}

// ---------------------------------------------------------------------------
// Modified key tree: 24 randomized schedules (4 shapes x 6 seeds), serial
// AND sharded rekeying side by side against the seed.
// ---------------------------------------------------------------------------

class ModifiedDifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::tuple<int, int>, int>> {
};

TEST_P(ModifiedDifferentialTest, ChurnScheduleMatchesSeedSerialAndSharded) {
  auto [shape, schedule_seed] = GetParam();
  auto [depth, base] = shape;
  Rng rng(static_cast<std::uint64_t>(depth * 10000 + base * 100 +
                                     schedule_seed));
  SeedModifiedKeyTree seed(depth);
  ModifiedKeyTree serial(depth);
  ModifiedKeyTree sharded(depth);
  const int shards = 2 + schedule_seed % 3;  // 2..4 worker threads
  std::vector<UserId> members;

  for (int interval = 0; interval < 25; ++interval) {
    int nj = static_cast<int>(rng.UniformInt(0, 5));
    int nl = static_cast<int>(
        rng.UniformInt(0, std::min<std::int64_t>(4, members.size())));
    for (int j = 0; j < nj; ++j) {
      UserId id;
      for (int i = 0; i < depth; ++i) {
        id.Append(static_cast<int>(rng.UniformInt(0, base - 1)));
      }
      if (seed.Contains(id)) continue;
      seed.Join(id);
      serial.Join(id);
      sharded.Join(id);
      members.push_back(id);
    }
    for (int l = 0; l < nl && !members.empty(); ++l) {
      std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(members.size()) - 1));
      seed.Leave(members[i]);
      serial.Leave(members[i]);
      sharded.Leave(members[i]);
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(serial.pending_changes(), seed.pending_changes());

    RekeyMessage seed_msg = seed.Rekey();
    ExpectSameMessage(serial.Rekey(), seed_msg, "serial interval");
    ExpectSameMessage(sharded.Rekey(shards), seed_msg, "sharded interval");

    ASSERT_EQ(serial.user_count(), seed.user_count());
    ASSERT_EQ(serial.knode_count(), seed.knode_count());
    ASSERT_EQ(sharded.knode_count(), seed.knode_count());
    for (const UserId& u : members) {
      for (int len = 0; len <= depth; ++len) {
        KeyId k = u.Prefix(len);
        ASSERT_EQ(serial.KeyVersion(k), seed.KeyVersion(k))
            << "key " << k.ToString();
        ASSERT_EQ(sharded.KeyVersion(k), seed.KeyVersion(k))
            << "key " << k.ToString();
      }
      ASSERT_EQ(serial.KeysOf(u), seed.KeysOf(u));
    }
    serial.CheckInvariants();
    sharded.CheckInvariants();
    seed.CheckInvariants();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ModifiedDifferentialTest,
    ::testing::Combine(::testing::Values(std::make_tuple(2, 3),
                                         std::make_tuple(3, 3),
                                         std::make_tuple(4, 4),
                                         std::make_tuple(5, 6)),
                       ::testing::Range(0, 6)));

TEST(ModifiedDifferential, HighFanOutBatchesMatchSeed) {
  // Hundreds of changes per interval at B = 64, so the level tables grow
  // to thousands of cells and rehash with pruned cells in them; the
  // randomized schedules above stay at a few dozen.
  const int depth = 3, base = 64;
  Rng rng(6403);
  SeedModifiedKeyTree seed(depth);
  ModifiedKeyTree serial(depth);
  ModifiedKeyTree sharded(depth);
  std::vector<UserId> members;

  for (int interval = 0; interval < 40; ++interval) {
    for (int j = 0; j < 400; ++j) {
      UserId id;
      for (int i = 0; i < depth; ++i) {
        id.Append(static_cast<int>(rng.UniformInt(0, base - 1)));
      }
      if (seed.Contains(id)) continue;
      seed.Join(id);
      serial.Join(id);
      sharded.Join(id);
      members.push_back(id);
    }
    for (int l = 0; l < 250 && !members.empty(); ++l) {
      std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(members.size()) - 1));
      seed.Leave(members[i]);
      serial.Leave(members[i]);
      sharded.Leave(members[i]);
      members[i] = members.back();
      members.pop_back();
    }
    ASSERT_EQ(serial.pending_changes(), seed.pending_changes());
    ASSERT_EQ(sharded.pending_changes(), seed.pending_changes());

    RekeyMessage seed_msg = seed.Rekey();
    ExpectSameMessage(serial.Rekey(), seed_msg, "serial interval");
    ExpectSameMessage(sharded.Rekey(3), seed_msg, "sharded interval");

    ASSERT_EQ(serial.user_count(), seed.user_count());
    ASSERT_EQ(serial.knode_count(), seed.knode_count());
    ASSERT_EQ(sharded.knode_count(), seed.knode_count());
    for (const UserId& u : members) {
      for (int len = 0; len <= depth; ++len) {
        KeyId k = u.Prefix(len);
        ASSERT_EQ(serial.KeyVersion(k), seed.KeyVersion(k))
            << "key " << k.ToString();
        ASSERT_EQ(sharded.KeyVersion(k), seed.KeyVersion(k))
            << "key " << k.ToString();
      }
    }
    serial.CheckInvariants();
    sharded.CheckInvariants();
    seed.CheckInvariants();
  }
}

TEST(ModifiedStreamingRekey, JoinThenLeaveSameIntervalMatchesSeed) {
  // The joiner held the keys it was unicast, so the surviving path must
  // rotate even though the net membership change is zero — the streamed
  // dirty list must keep the marks of the pruned-and-recreated path.
  SeedModifiedKeyTree seed(3);
  ModifiedKeyTree flat(3);
  for (auto u : {UserId{0, 0, 0}, UserId{1, 2, 0}}) {
    seed.Join(u);
    flat.Join(u);
  }
  ExpectSameMessage(flat.Rekey(), seed.Rekey(), "settle");
  seed.Join(UserId{0, 1, 1});
  flat.Join(UserId{0, 1, 1});
  seed.Leave(UserId{0, 1, 1});
  flat.Leave(UserId{0, 1, 1});
  ExpectSameMessage(flat.Rekey(), seed.Rekey(), "join+leave");
  seed.CheckInvariants();
  flat.CheckInvariants();
}

TEST(ModifiedStreamingRekey, RecreatedNodeResumesRetiredVersionChain) {
  // Forward secrecy across pruning: a re-created k-node must resume one
  // past its retired version in both implementations.
  SeedModifiedKeyTree seed(2);
  ModifiedKeyTree flat(2);
  for (auto u : {UserId{0, 0}, UserId{1, 0}}) {
    seed.Join(u);
    flat.Join(u);
  }
  ExpectSameMessage(flat.Rekey(), seed.Rekey(), "settle");
  seed.Leave(UserId{0, 0});
  flat.Leave(UserId{0, 0});
  ExpectSameMessage(flat.Rekey(), seed.Rekey(), "prune [0]");
  seed.Join(UserId{0, 1});
  flat.Join(UserId{0, 1});
  ASSERT_EQ(flat.KeyVersion(DigitString{0}), seed.KeyVersion(DigitString{0}));
  ExpectSameMessage(flat.Rekey(), seed.Rekey(), "recreate [0]");
}

// ---------------------------------------------------------------------------
// Complexity pins: the flat layout's operation counters must track the
// affected subtree, not the population. These are the regressions the
// O(N)-per-call ShallowLeaf/MembersNeeding scans (and the O(N) bitmap
// sweep) would trip immediately.
// ---------------------------------------------------------------------------

TEST(WglComplexity, SlotReuseRekeyDoesNoPlacementScanAtAnySize) {
  for (int levels : {3, 7}) {  // 64 and 16384 members, degree 4
    int n = 1;
    for (int i = 0; i < levels; ++i) n *= 4;
    WglKeyTree t(4);
    t.BuildFullBalanced(Iota(n));
    t.ResetOpStats();
    (void)t.Rekey({n + 1, n + 2}, {0, 1});
    const WglKeyTree::OpStats& s = t.op_stats();
    // Pure slot reuse: no join placement, so no descent at all; the
    // streamed walk touches only the two changed root paths.
    EXPECT_EQ(s.shallow_scan_steps, 0u) << "n=" << n;
    EXPECT_LE(s.rekey_marked_nodes, 2u * (static_cast<unsigned>(levels) + 1))
        << "n=" << n;
  }
}

TEST(WglComplexity, PureJoinPlacementScanIsDepthBounded) {
  // The seed's BFS visited O(N) nodes to find a placement in a full tree.
  // The augmented descent must touch at most degree*depth records per join.
  const int n = 16384;  // 4^7, full: every join splits a shallowest leaf
  WglKeyTree t(4);
  t.BuildFullBalanced(Iota(n));
  t.ResetOpStats();
  (void)t.Rekey({n + 1}, {});
  const WglKeyTree::OpStats& s = t.op_stats();
  EXPECT_GT(s.shallow_scan_steps, 0u);
  EXPECT_LE(s.shallow_scan_steps, 64u);  // ~ (degree+1) * depth, not ~ N
  EXPECT_LE(s.rekey_marked_nodes, 32u);
}

TEST(WglComplexity, MembersNeedingVisitsOnlyTheEncryptingSubtree) {
  WglKeyTree t(4);
  t.BuildFullBalanced(Iota(1024));  // 4^5
  RekeyMessage msg = t.Rekey({}, {0});
  ASSERT_FALSE(msg.encryptions.empty());
  // The deepest updated k-node's encryptions have leaf children: the walk
  // must visit just that node and its children, independent of the 1024
  // member population.
  const Encryption& leaf_level = msg.encryptions.front();
  t.ResetOpStats();
  std::vector<MemberId> needing = t.MembersNeeding(leaf_level);
  ASSERT_FALSE(needing.empty());
  EXPECT_LE(t.op_stats().members_needing_steps,
            2u * needing.size() + 2u);  // subtree nodes only
  // And the result size came from the stored subtree aggregate, which the
  // invariant checker verifies against a recomputation.
  t.CheckInvariants();
}

TEST(WglComplexity, LeafDepthIsStoredNotClimbed) {
  // Depths are node fields in the flat layout; KeysHeld at any population
  // is a hash lookup plus a field read. Sanity-check values against the
  // seed at a non-trivial shape.
  WglKeyTree flat(3);
  SeedWglKeyTree seed(3);
  std::vector<MemberId> init = Iota(40);
  flat.BuildIncremental(init);
  seed.BuildIncremental(init);
  for (MemberId m : init) {
    ASSERT_EQ(flat.LeafDepth(m), seed.LeafDepth(m));
    ASSERT_EQ(flat.KeysHeld(m), seed.KeysHeld(m));
  }
}

}  // namespace
}  // namespace tmesh
