#include "core/modified_key_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <thread>

#include "common/check.h"

namespace tmesh {

const ModifiedKeyTree::Cell* ModifiedKeyTree::LevelTable::Find(
    std::uint64_t word) const {
  if (cells_.empty()) return nullptr;
  const std::size_t mask = cells_.size() - 1;
  for (std::size_t i = Home(word);; i = (i + 1) & mask) {
    const Cell& c = cells_[i];
    if (c.slot == kUnused) return nullptr;
    if (c.word == word) return &c;
  }
}

ModifiedKeyTree::Cell& ModifiedKeyTree::LevelTable::FindOrInsert(
    std::uint64_t word) {
  if (2 * (used_ + 1) > cells_.size()) Grow();
  const std::size_t mask = cells_.size() - 1;
  for (std::size_t i = Home(word);; i = (i + 1) & mask) {
    Cell& c = cells_[i];
    if (c.slot == kUnused) {
      c.word = word;
      c.slot = kPruned;
      ++used_;
      return c;
    }
    if (c.word == word) return c;
  }
}

void ModifiedKeyTree::LevelTable::Grow() {
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(old.empty() ? 8 : 2 * old.size(), Cell{});
  shift_ = 64 - std::countr_zero(cells_.size());
  const std::size_t mask = cells_.size() - 1;
  for (const Cell& c : old) {
    if (c.slot == kUnused) continue;
    std::size_t i = Home(c.word);
    while (cells_[i].slot != kUnused) i = (i + 1) & mask;
    cells_[i] = c;
  }
}

ModifiedKeyTree::ModifiedKeyTree(int depth)
    : depth_(depth), levels_(static_cast<std::size_t>(depth) + 1) {
  TMESH_CHECK(depth >= 1 && depth <= kMaxDigits);
}

std::int32_t ModifiedKeyTree::NewNode(const DigitString& id) {
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    pool_.emplace_back();
    slot = static_cast<std::int32_t>(pool_.size() - 1);
  }
  Node& n = pool_[static_cast<std::size_t>(slot)];
  n = Node{};
  n.id = id;
  n.in_use = true;
  if (id.size() < depth_) ++knode_count_;
  return slot;
}

void ModifiedKeyTree::FreeNode(std::int32_t slot) {
  Node& n = pool_[static_cast<std::size_t>(slot)];
  if (n.id.size() < depth_) --knode_count_;
  n = Node{};  // clears the dirty stamp: freed slots must not be collected
  free_slots_.push_back(slot);
}

void ModifiedKeyTree::MarkDirty(std::int32_t slot) {
  Node& n = pool_[static_cast<std::size_t>(slot)];
  if (n.dirty_epoch != epoch_) {
    n.dirty_epoch = epoch_;
    dirty_.push_back(slot);
  }
}

void ModifiedKeyTree::Join(const UserId& u) {
  TMESH_CHECK(u.size() == depth_);
  TMESH_CHECK_MSG(Find(u) == -1, "join of present user " + u.ToString());
  for (int len = 0; len <= depth_; ++len) {
    const DigitString p = u.Prefix(len);
    Cell& cell = levels_[static_cast<std::size_t>(len)].FindOrInsert(p.Word());
    if (cell.slot < 0) {
      // A re-created node resumes one past the last version its previous
      // incarnation handed out — a departed member still holds those keys,
      // and a version collision would let it decrypt the new key chain
      // (fuzzer find; repro
      // tests/fuzz_repros/keytree_version_reuse_forward_secrecy.repro).
      ++cell.version;
      cell.slot = NewNode(p);
    }
    if (len < depth_) {
      pool_[static_cast<std::size_t>(cell.slot)].SetChild(u.digit(len));
      MarkDirty(cell.slot);
    }
  }
  changed_.push_back(u);
  ++user_count_;
}

void ModifiedKeyTree::Leave(UserId u) {
  TMESH_CHECK(u.size() == depth_);
  Cell* leaf = levels_[static_cast<std::size_t>(depth_)].Find(u.Word());
  TMESH_CHECK_MSG(leaf != nullptr && leaf->slot >= 0,
                  "leave of absent user " + u.ToString());
  FreeNode(leaf->slot);
  leaf->slot = kPruned;  // the cell keeps the retired version
  // Prune childless k-nodes bottom-up, then stamp the surviving path for
  // the next rekey: it still guards remaining users (pruned prefixes need
  // no new key — they have no users left).
  bool child_pruned = true;
  for (int len = depth_ - 1; len >= 0; --len) {
    Cell* cell =
        levels_[static_cast<std::size_t>(len)].Find(u.Prefix(len).Word());
    // Prefix closure: shorter prefixes of a live node are live.
    TMESH_CHECK(cell != nullptr && cell->slot >= 0);
    if (child_pruned) {
      Node& node = pool_[static_cast<std::size_t>(cell->slot)];
      node.ClearChild(u.digit(len));
      child_pruned = node.child_count == 0;
      if (child_pruned) {
        FreeNode(cell->slot);
        cell->slot = kPruned;
        continue;
      }
    }
    MarkDirty(cell->slot);
  }
  changed_.push_back(u);
  --user_count_;
}

void ModifiedKeyTree::EmitNode(const Pending& p, std::vector<Encryption>& out) {
  const std::size_t level = static_cast<std::size_t>(p.id.size());
  Cell* self = levels_[level].Find(p.id.Word());
  TMESH_DCHECK(self != nullptr && self->slot == p.slot);
  const std::uint32_t version = ++self->version;
  const Node& node = pool_[static_cast<std::size_t>(p.slot)];
  const LevelTable& children = levels_[level + 1];
  // Ascending-digit child order (the seed's std::set iteration).
  for (int w = 0; w < kChildWords; ++w) {
    std::uint64_t bits = node.child_bits[w];
    while (bits != 0) {
      int digit = w * 64 + __builtin_ctzll(bits);
      bits &= bits - 1;
      Encryption e;
      e.enc_key_id = p.id.Child(digit);  // "the ID of an encryption is the
                                         // ID of the encrypting key" (§2.4)
      e.new_key_id = p.id;
      e.new_key_version = version;
      e.enc_key_version = children.Find(e.enc_key_id.Word())->version;
      out.push_back(e);
    }
  }
}

RekeyMessage ModifiedKeyTree::Rekey(int shards) {
  TMESH_CHECK(shards >= 1);
  // Stream the dirty list: every stamped, still-alive k-node gets a new
  // key. Slots pruned after stamping were reset (stamp cleared); slots
  // reused by a new node carry a fresh stamp iff that node was re-marked.
  std::vector<Pending> updated;
  updated.reserve(dirty_.size());
  for (std::int32_t slot : dirty_) {
    Node& n = pool_[static_cast<std::size_t>(slot)];
    if (n.in_use && n.dirty_epoch == epoch_ && n.id.size() < depth_) {
      n.dirty_epoch = 0;  // consume: duplicates in dirty_ collect once
      updated.push_back(Pending{n.id, slot});
    }
  }
  dirty_.clear();
  ++epoch_;
  changed_.clear();

  // Deterministic deep-first order: children's new keys exist before they
  // encrypt their parents' new keys.
  auto deep_first = [](const Pending& a, const Pending& b) {
    if (a.id.size() != b.id.size()) return a.id.size() > b.id.size();
    return a.id < b.id;
  };

  RekeyMessage msg;
  if (shards <= 1 || depth_ < 2) {
    std::sort(updated.begin(), updated.end(), deep_first);
    for (const Pending& p : updated) EmitNode(p, msg.encryptions);
    return msg;
  }

  // Sharded: bucket the non-root nodes by level-1 digit. Each bucket is a
  // vertex-disjoint subtree, so bucket workers write disjoint cells and
  // read child versions only from their own bucket (or from u-nodes, which
  // no rekey writes). The root reads level-1 versions, so it is renewed
  // after the join barrier.
  const Pending* root = nullptr;
  std::array<std::vector<Pending>, kMaxBase> by_digit;
  for (const Pending& p : updated) {
    if (p.id.size() == 0) {
      root = &p;
    } else {
      by_digit[static_cast<std::size_t>(p.id.digit(0))].push_back(p);
    }
  }
  // Non-empty buckets in ascending digit order, which is the lexicographic
  // order of their nodes within any one level.
  std::vector<std::vector<Pending>*> buckets;
  for (auto& b : by_digit) {
    if (!b.empty()) buckets.push_back(&b);
  }

  // Per-bucket output, segmented by level so the merge can reproduce the
  // global (size desc, lex asc) order.
  std::vector<std::vector<std::vector<Encryption>>> by_level(
      buckets.size(),
      std::vector<std::vector<Encryption>>(static_cast<std::size_t>(depth_)));
  const int workers =
      std::min<int>(shards, static_cast<int>(buckets.size()));
  auto run_bucket = [&](std::size_t b) {
    std::sort(buckets[b]->begin(), buckets[b]->end(), deep_first);
    for (const Pending& p : *buckets[b]) {
      EmitNode(p, by_level[b][static_cast<std::size_t>(p.id.size())]);
    }
  };
  if (workers <= 1) {
    for (std::size_t b = 0; b < buckets.size(); ++b) run_bucket(b);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (std::size_t b = static_cast<std::size_t>(w); b < buckets.size();
             b += static_cast<std::size_t>(workers)) {
          run_bucket(b);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Merge: levels deep-first; within a level, buckets by ascending leading
  // digit; bucket-internal order is already lexicographic. The root comes
  // last (size 0 sorts after everything).
  for (int level = depth_ - 1; level >= 1; --level) {
    for (auto& segments : by_level) {
      auto& seg = segments[static_cast<std::size_t>(level)];
      msg.encryptions.insert(msg.encryptions.end(), seg.begin(), seg.end());
    }
  }
  if (root != nullptr) EmitNode(*root, msg.encryptions);
  return msg;
}

void ModifiedKeyTree::DiscardPending() {
  for (std::int32_t slot : dirty_) {
    Node& n = pool_[static_cast<std::size_t>(slot)];
    if (n.dirty_epoch == epoch_) n.dirty_epoch = 0;
  }
  dirty_.clear();
  ++epoch_;
  changed_.clear();
}

void ModifiedKeyTree::MarkPending(const KeyId& id) {
  TMESH_CHECK(id.size() < depth_);
  std::int32_t slot = Find(id);
  if (slot != -1) MarkDirty(slot);
}

std::vector<UserId> ModifiedKeyTree::PendingChanges() const {
  std::vector<UserId> ids = changed_;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

ModifiedKeyTreeState ModifiedKeyTree::Snapshot() const {
  ModifiedKeyTreeState s;
  for (int level = 0; level <= depth_; ++level) {
    for (const Cell& c : levels_[static_cast<std::size_t>(level)].cells()) {
      if (c.slot == kUnused) continue;
      (c.slot >= 0 ? s.nodes : s.retired)
          .emplace_back(DigitString::FromWord(c.word, level), c.version);
    }
  }
  for (std::int32_t slot : dirty_) {
    const Node& n = pool_[static_cast<std::size_t>(slot)];
    if (n.in_use && n.dirty_epoch == epoch_ && n.id.size() < depth_) {
      s.dirty.push_back(n.id);
    }
  }
  s.changed = PendingChanges();
  auto by_depth_lex = [](const auto& a, const auto& b) {
    if (a.first.size() != b.first.size()) return a.first.size() < b.first.size();
    return a.first < b.first;
  };
  std::sort(s.nodes.begin(), s.nodes.end(), by_depth_lex);
  std::sort(s.dirty.begin(), s.dirty.end());
  std::sort(s.retired.begin(), s.retired.end());
  return s;
}

void ModifiedKeyTree::Install(const ModifiedKeyTreeState& state) {
  // The pool only grows, so an empty pool means no node ever existed — and
  // no retired version of this tree's own could shadow the snapshot's.
  TMESH_CHECK_MSG(pool_.empty(), "install requires a fresh tree");
  for (const auto& [id, version] : state.retired) {
    TMESH_CHECK(id.size() <= depth_);
    levels_[static_cast<std::size_t>(id.size())].FindOrInsert(id.Word())
        .version = version;
  }
  // Parents precede children in the (size, lex) node order, so child bitmaps
  // can be set as nodes materialize.
  for (const auto& [id, version] : state.nodes) {
    TMESH_CHECK(id.size() <= depth_);
    Cell& cell =
        levels_[static_cast<std::size_t>(id.size())].FindOrInsert(id.Word());
    TMESH_CHECK_MSG(cell.slot < 0, "snapshot node listed twice");
    cell.version = version;
    cell.slot = NewNode(id);
    if (id.size() == depth_) ++user_count_;
    if (id.size() > 0) {
      std::int32_t parent = Find(id.Parent());
      TMESH_CHECK_MSG(parent != -1, "snapshot node set not prefix-closed");
      pool_[static_cast<std::size_t>(parent)].SetChild(id.LastDigit());
    }
  }
  for (const DigitString& id : state.dirty) {
    std::int32_t slot = Find(id);
    TMESH_CHECK_MSG(slot != -1, "snapshot dirty entry without node");
    MarkDirty(slot);
  }
  changed_ = state.changed;
}

std::vector<KeyId> ModifiedKeyTree::KeysOf(const UserId& u) const {
  TMESH_CHECK_MSG(Contains(u), "not a member: " + u.ToString());
  std::vector<KeyId> keys;
  keys.reserve(static_cast<std::size_t>(depth_) + 1);
  for (int len = 0; len <= depth_; ++len) keys.push_back(u.Prefix(len));
  return keys;
}

std::uint32_t ModifiedKeyTree::KeyVersion(const KeyId& id) const {
  const Cell* c = FindCell(id);
  return c != nullptr && c->slot >= 0 ? c->version : 0;
}

void ModifiedKeyTree::CheckInvariants() const {
  int users = 0;
  int knodes = 0;
  std::size_t live = 0;
  for (int level = 0; level <= depth_; ++level) {
    for (const Cell& c : levels_[static_cast<std::size_t>(level)].cells()) {
      if (c.slot == kUnused) continue;
      TMESH_CHECK_MSG(c.version > 0, "cell without an issued version");
      if (c.slot < 0) continue;
      ++live;
      const DigitString id = DigitString::FromWord(c.word, level);
      const Node& node = pool_[static_cast<std::size_t>(c.slot)];
      TMESH_CHECK_MSG(node.in_use && node.id == id, "cell/pool mismatch");
      if (level == depth_) {
        TMESH_CHECK_MSG(node.child_count == 0, "u-node with children");
        ++users;
      } else {
        TMESH_CHECK_MSG(node.child_count > 0, "childless k-node survived");
        ++knodes;
      }
      if (level > 0) {
        std::int32_t parent = Find(id.Parent());
        TMESH_CHECK_MSG(parent != -1, "orphan node");
        TMESH_CHECK_MSG(
            pool_[static_cast<std::size_t>(parent)].HasChild(id.LastDigit()),
            "parent unaware of child");
      }
      int bits = 0;
      for (int d = 0; d < kMaxBase; ++d) {
        if (!node.HasChild(d)) continue;
        ++bits;
        TMESH_CHECK_MSG(Find(id.Child(d)) != -1,
                        "child digit without child node");
      }
      TMESH_CHECK_MSG(bits == node.child_count, "child_count drift");
    }
  }
  std::size_t in_use = 0;
  for (const Node& n : pool_) {
    if (n.in_use) ++in_use;
  }
  TMESH_CHECK(in_use == live);
  TMESH_CHECK(users == user_count_);
  TMESH_CHECK(knodes == knode_count_);
}

}  // namespace tmesh
