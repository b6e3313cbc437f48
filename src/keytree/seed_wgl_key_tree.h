// FROZEN SEED BASELINE — do not "improve".
//
// This is the pre-flat-layout WglKeyTree kept verbatim (class renamed) as
// the golden oracle for the differential equivalence suite
// (tests/keytree_differential_test.cc), and built only into that test's
// tmesh_seed_keytree library (tests/CMakeLists.txt). The production
// WglKeyTree (keytree/wgl_key_tree.h) replaced the per-node child vectors
// and the O(N) whole-tree scans with a flat, augmented layout; its contract is
// byte-identical RekeyMessage / KeysHeld / PathNodes output to THIS
// implementation at every population where both can run. Any intentional
// behavior change to the production tree must come with a matching change
// here — which is exactly the point: there should never be one.
//
// (Original header comment follows.)
//
// The original key tree: Wong-Gouda-Lam key graph with periodic batch
// rekeying — the paper's baseline key-management scheme (§4.2).
//
// Unlike the modified key tree (whose shape is pinned to the ID tree), this
// tree has a fixed degree and grows/shrinks with membership:
//   - a joining u-node first takes the position of a departed u-node;
//   - extra joins split a shallowest u-node into a k-node holding the old
//     and new u-nodes;
//   - extra departures are pruned (k-nodes that lose all children vanish).
// At the end of a rekey interval the server updates every key on the path
// from each changed position to the root and emits, per updated k-node, one
// encryption per child (encrypted under the child's current/new key).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "keytree/rekey_types.h"

namespace tmesh {

class SeedWglKeyTree {
 public:
  explicit SeedWglKeyTree(int degree = 4);

  void BuildFullBalanced(const std::vector<MemberId>& members);
  void BuildIncremental(const std::vector<MemberId>& members);

  RekeyMessage Rekey(const std::vector<MemberId>& joins,
                     const std::vector<MemberId>& leaves);

  bool Contains(MemberId m) const { return leaf_of_.count(m) > 0; }
  int member_count() const { return static_cast<int>(leaf_of_.size()); }
  int degree() const { return degree_; }

  int LeafDepth(MemberId m) const;
  int KeysHeld(MemberId m) const;
  std::vector<MemberId> MembersNeeding(const Encryption& e) const;
  bool MemberUnder(MemberId m, std::int32_t n) const;
  std::vector<std::pair<std::int32_t, std::uint32_t>> PathNodes(
      MemberId m) const;
  void CheckInvariants() const;

 private:
  struct Node {
    std::int32_t parent = -1;
    std::vector<std::int32_t> children;  // empty for u-nodes
    MemberId member = kNoMember;         // set for u-nodes only
    std::uint32_t version = 0;           // bumped when the key is renewed
    bool alive = true;
    bool IsLeaf() const { return member != kNoMember; }
  };

  std::int32_t NewNode();
  void MarkPathUpdated(std::int32_t node, std::vector<char>& updated) const;
  std::int32_t ShallowLeaf() const;  // a u-node of minimum depth
  void DetachLeaf(std::int32_t leaf, std::vector<char>& updated);

  int degree_;
  std::int32_t root_ = -1;
  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_list_;
  std::unordered_map<MemberId, std::int32_t> leaf_of_;
};

}  // namespace tmesh
