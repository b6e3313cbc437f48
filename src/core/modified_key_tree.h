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
//
// Flat layout (million-user scale). Nodes are compact records in one pool
// (child digits as a 256-bit bitmap, no per-node set/vector). Each level
// 0..D has its own open-addressing table keyed by the packed digit word
// (the level fixes the length); a table cell holds the key's version next
// to the node's pool slot. Cells are insert-only: a pruned node keeps its
// cell, which then holds the last version issued, so re-creating the node
// is ++version and the pruned cells are the retired-version ledger. The
// version lives in the cell, not the node, because the root and level-1
// k-nodes emit most of a large group's encryptions, and their children's
// versions then come from the small level-1 and level-2 tables instead of
// random reads across the pool. Join/Leave stamp the touched k-nodes into
// a dirty list as they go, so Rekey() streams over exactly the affected
// nodes — no per-interval changed-leaf prefix probing, no materialized
// update set — and costs O(affected · depth), independent of the
// population.
//
// Sharded rekeying: Rekey(shards) with shards > 1 partitions the updated
// k-nodes by their level-1 digit and renews the buckets on worker threads.
// Buckets are vertex-disjoint subtrees (every descendant of [d] shares the
// digit). The workers share the level tables, but each bumps versions only
// in its own buckets' cells and reads child versions only from its own
// bucket (u-node versions are frozen during an interval); no cell is
// inserted during a rekey, so no probe reads a version another worker
// writes. The root is renewed after the join barrier since it reads all
// level-1 keys. Bucket outputs are concatenated per (level desc, digit
// asc) segment, which equals the serial (size desc, lex asc) sort — the
// message is byte-identical to Rekey(1) and to the retained
// SeedModifiedKeyTree (pinned by tests/keytree_differential_test.cc).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/digit_string.h"
#include "keytree/rekey_types.h"

namespace tmesh {

// Portable key-tree state for key-server replication (DESIGN.md §3g): the
// exact node versions, the retired-version ledger, and the pending batch.
// Everything else (child bitmaps, counters, slot layout) is derivable from
// the node set, so Install() reconstructs it.
struct ModifiedKeyTreeState {
  // Every live node (k-nodes and u-nodes), sorted by (size, lex) so slot
  // assignment on install is deterministic.
  std::vector<std::pair<DigitString, std::uint32_t>> nodes;  // id -> version
  std::vector<DigitString> dirty;    // k-nodes stamped for the next rekey
  std::vector<UserId> changed;       // pending changed leaves, sorted
  // The last version issued to every pruned ID that is not live now (a
  // re-created node's own version already continues its chain), sorted.
  std::vector<std::pair<DigitString, std::uint32_t>> retired;
};

class ModifiedKeyTree {
 public:
  explicit ModifiedKeyTree(int depth);

  int depth() const { return depth_; }
  int user_count() const { return user_count_; }
  bool Contains(const UserId& u) const {
    return u.size() == depth_ && Find(u) != -1;
  }

  // Adds the u-node for `u` (and any missing k-nodes on its path); the
  // change is remembered for the next Rekey().
  void Join(const UserId& u);

  // Removes the u-node (pruning k-nodes left childless); remembered for the
  // next Rekey().
  void Leave(UserId u);

  // Ends the rekey interval: renews keys on all changed paths, emits the
  // rekey message, clears the pending-change set. `shards` > 1 renews the
  // level-1 subtrees on that many worker threads; the message is identical
  // for every shard count.
  RekeyMessage Rekey(int shards = 1);

  // Drops the pending batch without renewing any key: clears the dirty
  // stamps and the changed-leaf set, leaving structure and versions as they
  // are. The key server calls this on the scheme whose message it does NOT
  // distribute, so the inactive tree never does (or accumulates) rekey work.
  void DiscardPending();

  // Re-stamps an existing k-node for the next rekey. Used on failover after
  // a mid-batch crash: key versions the dead server renewed but never
  // distributed are burned, and the successor must issue fresh ones on the
  // same paths (DESIGN.md §3g). No-op if the node has been pruned since.
  void MarkPending(const KeyId& id);

  // State transfer for replication. Install() requires a tree of the same
  // depth that has never held a node (one whose members all left still
  // remembers their versions) and reproduces the source exactly: versions,
  // retired ledger, pending batch, and therefore every future rekey message
  // byte-for-byte.
  ModifiedKeyTreeState Snapshot() const;
  void Install(const ModifiedKeyTreeState& state);

  // Number of pending changed paths (distinct joined or departed user IDs).
  int pending_changes() const {
    return static_cast<int>(PendingChanges().size());
  }

  // The IDs of the keys user u currently holds, shortest first: the group
  // key "[]", the auxiliary keys u.ID[0:0..D-2], and its individual key
  // (ID = u.ID). Requires membership.
  std::vector<KeyId> KeysOf(const UserId& u) const;

  // Current version of a key; 0 if the node does not exist.
  std::uint32_t KeyVersion(const KeyId& id) const;

  int knode_count() const { return knode_count_; }  // levels 0..D-1, O(1)

  // Structural check: node set is prefix-closed, child bitmaps consistent,
  // u-nodes exactly at level D, counters exact.
  void CheckInvariants() const;

 private:
  static constexpr int kChildWords = kMaxBase / 64;
  // Slot values of a cell that holds no live node.
  static constexpr std::int32_t kUnused = -2;  // empty cell
  static constexpr std::int32_t kPruned = -1;  // claimed, not live

  struct Node {
    std::uint64_t child_bits[kChildWords] = {};  // next digits (k-nodes)
    KeyId id;
    bool in_use = false;
    std::uint32_t dirty_epoch = 0;  // 0 = clean
    std::int32_t child_count = 0;

    bool HasChild(int d) const {
      return (child_bits[d >> 6] >> (d & 63)) & 1u;
    }
    void SetChild(int d) {
      std::uint64_t& w = child_bits[d >> 6];
      std::uint64_t bit = std::uint64_t{1} << (d & 63);
      if (!(w & bit)) {
        w |= bit;
        ++child_count;
      }
    }
    void ClearChild(int d) {
      std::uint64_t& w = child_bits[d >> 6];
      std::uint64_t bit = std::uint64_t{1} << (d & 63);
      if (w & bit) {
        w &= ~bit;
        --child_count;
      }
    }
  };

  // One key ID's cell. The version is the current one while the node is
  // live and the last one issued once it is pruned, so no (key ID, version)
  // pair is ever issued twice — a departed member holding the old keys must
  // not be able to decrypt a later chain.
  struct Cell {
    std::uint64_t word = 0;       // DigitString::Word() of the ID
    std::uint32_t version = 0;    // 0 until the first version is issued
    std::int32_t slot = kUnused;  // pool slot while live, else kPruned
  };

  // Insert-only open-addressing table of one level's cells: linear probing
  // at load <= 1/2, Fibonacci hashing of the word (a level's digits sit in
  // the word's high bytes, which the product's top bits mix). Probes read
  // only `word` and `slot`. Insertion may rehash, which moves every cell.
  class LevelTable {
   public:
    const Cell* Find(std::uint64_t word) const;
    Cell* Find(std::uint64_t word) {
      return const_cast<Cell*>(std::as_const(*this).Find(word));
    }
    // The cell for `word`; a new cell is claimed as kPruned at version 0.
    Cell& FindOrInsert(std::uint64_t word);
    const std::vector<Cell>& cells() const { return cells_; }

   private:
    std::size_t Home(std::uint64_t word) const {
      return static_cast<std::size_t>((word * 0x9e3779b97f4a7c15ull) >> shift_);
    }
    void Grow();

    std::vector<Cell> cells_;  // empty, or a power of two
    std::size_t used_ = 0;     // cells not kUnused
    int shift_ = 64;           // 64 - log2(cells_.size())
  };

  // An updated k-node as Rekey() sorts it: the ID inline, so the ordering
  // never reads the pool.
  struct Pending {
    KeyId id;
    std::int32_t slot;
  };

  const Cell* FindCell(const DigitString& id) const {
    return id.size() <= depth_ ? levels_[static_cast<std::size_t>(id.size())]
                                     .Find(id.Word())
                               : nullptr;
  }
  std::int32_t Find(const DigitString& id) const {
    const Cell* c = FindCell(id);
    return c != nullptr && c->slot >= 0 ? c->slot : -1;
  }
  std::int32_t NewNode(const DigitString& id);
  void FreeNode(std::int32_t slot);
  void MarkDirty(std::int32_t slot);
  // Renews one node's key and appends its encryptions to `out`. Writes only
  // the node's own cell; reads its record and its children's cells.
  void EmitNode(const Pending& p, std::vector<Encryption>& out);
  // The distinct pending changed leaves, sorted.
  std::vector<UserId> PendingChanges() const;

  int depth_;
  int user_count_ = 0;
  int knode_count_ = 0;
  std::vector<Node> pool_;
  std::vector<std::int32_t> free_slots_;
  std::vector<LevelTable> levels_;  // index = ID length, 0..D
  // K-nodes touched this interval, stamped with epoch_ (streamed at Rekey;
  // stale entries for since-pruned slots are filtered by the stamp).
  std::vector<std::int32_t> dirty_;
  std::uint32_t epoch_ = 1;
  // Changed leaf IDs in arrival order, repeats included; deduplicated only
  // where read (pending_changes(), Snapshot()).
  std::vector<UserId> changed_;
};

}  // namespace tmesh
