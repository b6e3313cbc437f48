#include "core/modified_key_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"

namespace tmesh {
namespace {

// Replays the paper's Fig. 4 key tree (D = 2; users [0,1], [0,2], [2,0],
// [2,1], [2,2]).
class Fig4Tree : public ::testing::Test {
 protected:
  void SetUp() override {
    for (auto id : {UserId{0, 1}, UserId{0, 2}, UserId{2, 0}, UserId{2, 1},
                    UserId{2, 2}}) {
      tree_.Join(id);
    }
    (void)tree_.Rekey();  // settle the initial batch
  }
  ModifiedKeyTree tree_{2};
};

TEST_F(Fig4Tree, UsersHoldRootPathKeys) {
  // "user u5 is given the three keys on the path from its u-node to the
  // root: k5, k345, and k1-5" — i.e. IDs [2,2], [2], [].
  auto keys = tree_.KeysOf(UserId{2, 2});
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], DigitString{});
  EXPECT_EQ(keys[1], DigitString{2});
  EXPECT_EQ(keys[2], (UserId{2, 2}));
}

TEST_F(Fig4Tree, SingleLeaveUpdatesPathAndEmitsFourEncryptions) {
  // "Suppose that a single user, say u5, leaves... the key server... changes
  // k1-5 to k1-4, and changes k345 to k34... and generates four encryptions:
  // {k1-4}k12, {k1-4}k34, {k34}k3, {k34}k4."
  std::uint32_t root_v = tree_.KeyVersion(DigitString{});
  std::uint32_t k2_v = tree_.KeyVersion(DigitString{2});
  std::uint32_t k0_v = tree_.KeyVersion(DigitString{0});

  tree_.Leave(UserId{2, 2});
  RekeyMessage msg = tree_.Rekey();
  EXPECT_EQ(msg.RekeyCost(), 4u);

  EXPECT_EQ(tree_.KeyVersion(DigitString{}), root_v + 1);
  EXPECT_EQ(tree_.KeyVersion(DigitString{2}), k2_v + 1);
  EXPECT_EQ(tree_.KeyVersion(DigitString{0}), k0_v);  // untouched branch

  // Encryption IDs: {newRoot} under [0] and [2]; {new[2]} under [2,0],[2,1].
  std::multiset<std::string> ids;
  for (const Encryption& e : msg.encryptions) {
    ids.insert(e.enc_key_id.ToString());
  }
  EXPECT_EQ(ids, (std::multiset<std::string>{"[0]", "[2]", "[2,0]", "[2,1]"}));
}

TEST_F(Fig4Tree, Lemma3NeededIffEncryptionIdPrefixesUserId) {
  tree_.Leave(UserId{2, 2});
  RekeyMessage msg = tree_.Rekey();
  // u3 = [2,0] "needs only {k1-4}k34" plus its branch key update {k34}k3.
  int needed = 0;
  for (const Encryption& e : msg.encryptions) {
    if (UserNeedsEncryption(UserId{2, 0}, e)) ++needed;
  }
  EXPECT_EQ(needed, 2);  // {newRoot}_{k[2]} and {new[2]}_{k[2,0]}
  // u1 = [0,1] needs exactly one: {newRoot}_{k[0]}.
  needed = 0;
  for (const Encryption& e : msg.encryptions) {
    if (UserNeedsEncryption(UserId{0, 1}, e)) ++needed;
  }
  EXPECT_EQ(needed, 1);
}

TEST(ModifiedKeyTree, JoinCreatesMissingKNodes) {
  ModifiedKeyTree t(3);
  t.Join(UserId{1, 2, 3});
  EXPECT_EQ(t.user_count(), 1);
  EXPECT_EQ(t.knode_count(), 3);  // [], [1], [1,2]
  EXPECT_EQ(t.KeyVersion(DigitString{1, 2}), 1u);
  t.CheckInvariants();
}

TEST(ModifiedKeyTree, LePrunes) {
  ModifiedKeyTree t(3);
  t.Join(UserId{1, 2, 3});
  t.Join(UserId{1, 0, 0});
  t.Leave(UserId{1, 2, 3});
  EXPECT_EQ(t.KeyVersion(DigitString{1, 2}), 0u);  // pruned
  EXPECT_NE(t.KeyVersion(DigitString{1}), 0u);     // survives
  t.CheckInvariants();
}

TEST(ModifiedKeyTree, JoinThenLeaveSameIntervalStillRekeysExposedPath) {
  ModifiedKeyTree t(2);
  t.Join(UserId{0, 0});
  (void)t.Rekey();
  std::uint32_t root_v = t.KeyVersion(DigitString{});
  // A user joins and leaves within the interval: it held the keys (the
  // server unicasts them at join time), so the surviving path must rotate.
  t.Join(UserId{0, 1});
  t.Leave(UserId{0, 1});
  RekeyMessage msg = t.Rekey();
  EXPECT_EQ(t.KeyVersion(DigitString{}), root_v + 1);
  EXPECT_GT(msg.RekeyCost(), 0u);
}

TEST(ModifiedKeyTree, BatchSharesPathUpdates) {
  // Two leaves under the same level-1 subtree update that path once, not
  // twice: cost = children(root) + children([0]) after removal.
  ModifiedKeyTree t(2);
  for (int j = 0; j < 4; ++j) t.Join(UserId{0, j});
  for (int j = 0; j < 2; ++j) t.Join(UserId{1, j});
  (void)t.Rekey();
  t.Leave(UserId{0, 0});
  t.Leave(UserId{0, 1});
  RekeyMessage msg = t.Rekey();
  // Updated k-nodes: [] (2 children), [0] (2 remaining children) => 4.
  EXPECT_EQ(msg.RekeyCost(), 4u);
}

TEST(ModifiedKeyTree, RejectsWrongSizeAndDuplicates) {
  ModifiedKeyTree t(3);
  EXPECT_THROW(t.Join(UserId{0, 0}), std::logic_error);
  t.Join(UserId{0, 0, 0});
  EXPECT_THROW(t.Join(UserId{0, 0, 0}), std::logic_error);
  EXPECT_THROW(t.Leave(UserId{1, 1, 1}), std::logic_error);
}

void ExpectSameMessage(const RekeyMessage& a, const RekeyMessage& b) {
  ASSERT_EQ(a.encryptions.size(), b.encryptions.size());
  for (std::size_t i = 0; i < a.encryptions.size(); ++i) {
    EXPECT_TRUE(a.encryptions[i] == b.encryptions[i]) << "encryption " << i;
  }
}

TEST(ModifiedKeyTree, InstallRejectsATreeThatEverHeldANode) {
  // A tree whose members all left still remembers the versions it issued.
  // Installed over, those would shadow the snapshot's retired chain: the
  // tree would re-create [0] at a version the source already issued.
  ModifiedKeyTree source(2);
  for (int i = 0; i < 3; ++i) {
    source.Join(UserId{0, 0});
    (void)source.Rekey();
    source.Leave(UserId{0, 0});
    (void)source.Rekey();
  }
  ModifiedKeyTree drained(2);
  drained.Join(UserId{0, 0});
  (void)drained.Rekey();
  drained.Leave(UserId{0, 0});
  (void)drained.Rekey();
  ASSERT_EQ(drained.user_count(), 0);
  ASSERT_EQ(drained.pending_changes(), 0);
  EXPECT_THROW(drained.Install(source.Snapshot()), std::logic_error);

  ModifiedKeyTree fresh(2);
  fresh.Install(source.Snapshot());
  source.Join(UserId{0, 0});
  fresh.Join(UserId{0, 0});
  EXPECT_EQ(fresh.KeyVersion(DigitString{0}), source.KeyVersion(DigitString{0}));
  ExpectSameMessage(fresh.Rekey(), source.Rekey());
}

TEST(ModifiedKeyTree, RecreatedNodeResumesRetiredVersionAcrossFailover) {
  // Forward secrecy across a snapshot: a k-node pruned in the source and
  // re-created after failover continues the source's version chain.
  ModifiedKeyTree source(2);
  source.Join(UserId{0, 0});
  source.Join(UserId{1, 0});
  (void)source.Rekey();
  source.Leave(UserId{0, 0});  // prunes [0]
  (void)source.Rekey();
  ASSERT_EQ(source.KeyVersion(DigitString{0}), 0u);

  ModifiedKeyTree standby(2);
  standby.Install(source.Snapshot());
  source.Join(UserId{0, 1});
  standby.Join(UserId{0, 1});
  EXPECT_EQ(source.KeyVersion(DigitString{0}), 3u);  // retired at v2
  EXPECT_EQ(standby.KeyVersion(DigitString{0}),
            source.KeyVersion(DigitString{0}));
  ExpectSameMessage(standby.Rekey(), source.Rekey());
  standby.CheckInvariants();
}

// Decryption-closure property: after any batch, every current member,
// starting from the keys it held before the batch (or received at join),
// can decrypt its whole new root path from the rekey message alone.
class ModifiedTreeClosureTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ModifiedTreeClosureTest, EveryMemberCanDecryptItsPath) {
  auto [depth, base] = GetParam();
  ModifiedKeyTree tree(depth);
  Rng rng(2024);
  std::vector<UserId> members;
  // Key state per member: key id -> version held.
  std::map<UserId, std::map<KeyId, std::uint32_t>> held;

  auto grant_initial_keys = [&](const UserId& u) {
    // The server unicasts the joiner its current path keys (§3.1).
    for (int len = 0; len <= depth; ++len) {
      held[u][u.Prefix(len)] = tree.KeyVersion(u.Prefix(len));
    }
  };

  for (int interval = 0; interval < 15; ++interval) {
    int joins = static_cast<int>(rng.UniformInt(0, 4));
    int leaves = static_cast<int>(
        rng.UniformInt(0, std::min<std::int64_t>(3, members.size())));
    for (int j = 0; j < joins; ++j) {
      UserId id;
      for (int i = 0; i < depth; ++i) {
        id.Append(static_cast<int>(rng.UniformInt(0, base - 1)));
      }
      if (tree.Contains(id)) continue;
      tree.Join(id);
      members.push_back(id);
      grant_initial_keys(id);
    }
    for (int l = 0; l < leaves && !members.empty(); ++l) {
      std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(members.size()) - 1));
      tree.Leave(members[i]);
      held.erase(members[i]);
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
    }
    RekeyMessage msg = tree.Rekey();
    tree.CheckInvariants();

    // Closure: apply encryptions until fixpoint for each member.
    for (const UserId& u : members) {
      auto& keys = held[u];
      bool progress = true;
      while (progress) {
        progress = false;
        for (const Encryption& e : msg.encryptions) {
          auto it = keys.find(e.enc_key_id);
          if (it == keys.end() || it->second != e.enc_key_version) continue;
          auto cur = keys.find(e.new_key_id);
          if (cur != keys.end() && cur->second >= e.new_key_version) continue;
          keys[e.new_key_id] = e.new_key_version;
          progress = true;
        }
      }
      // The member must now hold the latest version of every path key.
      for (int len = 0; len <= depth; ++len) {
        KeyId k = u.Prefix(len);
        ASSERT_EQ(keys.at(k), tree.KeyVersion(k))
            << "member " << u.ToString() << " stuck at key " << k.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ModifiedTreeClosureTest,
    ::testing::Values(std::make_tuple(2, 3), std::make_tuple(3, 3),
                      std::make_tuple(4, 4), std::make_tuple(5, 6)));

// Rekey cost equals the independent formula: sum over updated k-nodes of
// their child counts, where a k-node is updated iff it is an existing
// prefix of a changed user ID.
TEST(ModifiedKeyTree, CostMatchesIndependentFormula) {
  Rng rng(31);
  const int depth = 3, base = 5;
  ModifiedKeyTree tree(depth);
  std::set<UserId> present;
  for (int interval = 0; interval < 25; ++interval) {
    std::set<UserId> changed;
    int nj = static_cast<int>(rng.UniformInt(0, 5));
    int nl = static_cast<int>(
        rng.UniformInt(0, std::min<std::int64_t>(4, present.size())));
    for (int j = 0; j < nj; ++j) {
      UserId id;
      for (int i = 0; i < depth; ++i) {
        id.Append(static_cast<int>(rng.UniformInt(0, base - 1)));
      }
      if (present.count(id)) continue;
      tree.Join(id);
      present.insert(id);
      changed.insert(id);
    }
    for (int l = 0; l < nl; ++l) {
      auto it = present.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<std::int64_t>(present.size()) - 1));
      tree.Leave(*it);
      changed.insert(*it);
      present.erase(it);
    }

    // Independent model: rebuild membership sets per prefix.
    std::map<DigitString, std::set<int>> children;
    for (const UserId& u : present) {
      for (int len = 0; len < depth; ++len) {
        children[u.Prefix(len)].insert(u.digit(len));
      }
    }
    std::size_t expected = 0;
    std::set<DigitString> updated;
    for (const UserId& u : changed) {
      for (int len = 0; len < depth; ++len) {
        DigitString p = u.Prefix(len);
        if (children.count(p)) updated.insert(p);
      }
    }
    for (const DigitString& p : updated) {
      expected += children.at(p).size();
    }

    RekeyMessage msg = tree.Rekey();
    ASSERT_EQ(msg.RekeyCost(), expected) << "interval " << interval;
  }
}

}  // namespace
}  // namespace tmesh
