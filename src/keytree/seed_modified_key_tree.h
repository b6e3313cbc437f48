// FROZEN SEED BASELINE — do not "improve".
//
// This is the pre-flat-layout ModifiedKeyTree kept verbatim (class renamed,
// moved under src/keytree/ so it depends only on tmesh_common) as the golden
// oracle for the differential equivalence suite
// (tests/keytree_differential_test.cc), and built only into that test's
// tmesh_seed_keytree library (tests/CMakeLists.txt). The production
// ModifiedKeyTree (core/modified_key_tree.h) replaced the per-node
// unordered_set children and the set-materializing batch rekey with a flat
// node pool, digit bitmaps, and a streaming (optionally sharded) rekey; its
// contract is byte-identical RekeyMessage output and identical
// KeyVersion/KeysOf state vs THIS implementation on every schedule.
//
// (Original header comment follows.)
//
// The modified key tree (§2.4): a key tree whose structure matches the ID
// tree exactly.
//
// "Our modified key tree has a fixed height, and it grows in a horizontal
// direction when users join." Every k-node is an ID-tree node (its key's ID
// is the node's ID); every u-node is a user (its ID is the user's ID). A
// user holds its individual key plus the keys of the k-nodes on the path
// from its u-node to the root — i.e. the keys whose IDs are prefixes of its
// user ID, which is what makes Lemma 3 ("a user needs the key in an
// encryption iff the encryption's ID is a prefix of the user's ID") hold by
// construction.
//
// Batch rekeying (§2.4): joins/leaves accumulate during a rekey interval
// (Join/Leave mutate the structure immediately and record the changed
// paths); Rekey() then renews every k-node key on a changed path and emits,
// per updated k-node, one encryption per child — the new key encrypted
// under the child's key (the child's *new* key if the child was updated
// too). The encryption's ID is the encrypting child's ID.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/digit_string.h"
#include "keytree/rekey_types.h"

namespace tmesh {

class SeedModifiedKeyTree {
 public:
  explicit SeedModifiedKeyTree(int depth);

  int depth() const { return depth_; }
  int user_count() const { return user_count_; }
  bool Contains(const UserId& u) const {
    return u.size() == depth_ && nodes_.count(u) > 0;
  }

  // Adds the u-node for `u` (and any missing k-nodes on its path); the
  // change is remembered for the next Rekey().
  void Join(const UserId& u);

  // Removes the u-node (pruning k-nodes left childless); remembered for the
  // next Rekey().
  void Leave(UserId u);

  // Ends the rekey interval: renews keys on all changed paths, emits the
  // rekey message, clears the pending-change set.
  RekeyMessage Rekey();

  // Number of pending changed paths (joined or departed user IDs).
  int pending_changes() const { return static_cast<int>(changed_.size()); }

  // The IDs of the keys user u currently holds, shortest first: the group
  // key "[]", the auxiliary keys u.ID[0:0..D-2], and its individual key
  // (ID = u.ID). Requires membership.
  std::vector<KeyId> KeysOf(const UserId& u) const;

  // Current version of a key; 0 if the node does not exist.
  std::uint32_t KeyVersion(const KeyId& id) const;

  int knode_count() const;  // internal nodes, levels 0..D-1

  // Structural check: node set is prefix-closed, children sets consistent,
  // u-nodes exactly at level D.
  void CheckInvariants() const;

 private:
  struct Node {
    std::unordered_set<int> children;  // next digits (levels 0..D-1 only)
    std::uint32_t version = 1;
  };

  int depth_;
  int user_count_ = 0;
  std::unordered_map<DigitString, Node> nodes_;  // levels 0..D
  std::unordered_set<UserId> changed_;           // changed leaf IDs
  // Last version of every pruned node: re-created nodes resume one past it,
  // so no (key ID, version) pair is ever issued twice — a departed member
  // holding the old keys must not be able to decrypt a later chain.
  std::unordered_map<DigitString, std::uint32_t> retired_versions_;
};

}  // namespace tmesh
