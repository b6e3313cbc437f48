#include "core/directory.h"

#include <algorithm>

namespace tmesh {

Directory::Directory(const Network& net, const GroupParams& params,
                     HostId server_host, AdmissionOptions admission)
    : net_(net),
      params_(params),
      server_host_(server_host),
      admission_(admission),
      window_(admission.window > 0 ? admission.window : 4 * params.capacity),
      id_tree_(params.digits, params.base),
      server_table_(1, params.base, params.capacity) {
  TMESH_CHECK(params.digits >= 1 && params.digits <= kMaxDigits);
  TMESH_CHECK(params.base >= 2 && params.base <= kMaxBase);
  TMESH_CHECK(params.capacity >= 1);
  TMESH_CHECK_MSG(window_ >= params.capacity,
                  "candidate window below entry capacity");
  TMESH_CHECK(server_host >= 0 && server_host < net.host_count());
}

NeighborRecord Directory::MakeRecord(const MemberInfo& of,
                                     HostId owner_host) const {
  NeighborRecord rec;
  rec.id = of.id;
  rec.host = of.host;
  rec.join_time = of.join_time;
  rec.rtt_ms = net_.RttHosts(owner_host, of.host);
  return rec;
}

MemberInfo& Directory::InfoMut(const UserId& id) {
  auto it = members_.find(id);
  TMESH_CHECK_MSG(it != members_.end(), "unknown member " + id.ToString());
  return it->second;
}

void Directory::UnderfullInsert(const DigitString& node, const UserId& holder) {
  underfull_[node].insert(holder);
}

void Directory::UnderfullErase(const DigitString& node, const UserId& holder) {
  auto it = underfull_.find(node);
  if (it == underfull_.end()) return;
  it->second.erase(holder);
  if (it->second.empty()) underfull_.erase(it);
}

void Directory::InsertIntoHolder(MemberInfo& w, int row, int digit,
                                 const MemberInfo& who) {
  TMESH_DCHECK(w.table.entry(row, digit) == nullptr ||
               static_cast<int>(w.table.entry(row, digit)->size()) <
                   params_.capacity);
  bool kept = w.table.Insert(row, digit, MakeRecord(who, w.host));
  TMESH_DCHECK(kept);
  (void)kept;
  ++stats_.holders_updated;
  rev_holders_[who.id].insert(w.id);
  // The entry maps to who's (row+1)-prefix node (w and who share `row`
  // digits, and `digit` is who's digit there).
  const DigitString node = who.id.Prefix(row + 1);
  const NeighborTable::Entry* e = w.table.entry(row, digit);
  if (static_cast<int>(e->size()) < params_.capacity) {
    UnderfullInsert(node, w.id);
  } else {
    UnderfullErase(node, w.id);
  }
}

void Directory::Refill(MemberInfo& w, int row, int digit) {
  ++stats_.refill_calls;
  const DigitString node = w.id.Prefix(row).Child(digit);
  const int k = params_.capacity;
  const NeighborTable::Entry* e = w.table.entry(row, digit);
  int have = e == nullptr ? 0 : static_cast<int>(e->size());
  if (!id_tree_.NodeExists(node)) {
    // Subtree vanished: the entry must already be gone, and there is nothing
    // to track — a recreated subtree arrives via the new-node broadcast.
    TMESH_DCHECK(have == 0);
    return;
  }
  if (have < k) {
    // Windowed candidate gathering: RTT-probe at most window_ eligible
    // members, in the bucket's canonical order, and keep the nearest.
    // With window_ >= K, exhausting the bucket means every alive
    // not-yet-held member was probed, so the entry still reaches
    // min(K, m) records.
    struct Cand {
      NeighborRecord rec;
      std::size_t pos;
    };
    std::vector<Cand> cands;
    const std::vector<UserId>& bucket = id_tree_.UsersRef(node);
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (static_cast<int>(cands.size()) >= window_) break;
      const MemberInfo& c = Info(bucket[i]);
      if (!c.alive) continue;
      if (w.table.ContainsNeighbor(row, digit, c.id)) continue;
      ++stats_.candidates_probed;
      cands.push_back({MakeRecord(c, w.host), i});
    }
    // Nearest first; canonical position breaks RTT ties, so both admission
    // policies insert the same records in the same order.
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      return a.rec.rtt_ms != b.rec.rtt_ms ? a.rec.rtt_ms < b.rec.rtt_ms
                                          : a.pos < b.pos;
    });
    const int need = k - have;
    if (static_cast<int>(cands.size()) > need) {
      cands.resize(static_cast<std::size_t>(need));
    }
    for (const Cand& c : cands) {
      bool kept = w.table.Insert(row, digit, c.rec);
      TMESH_DCHECK(kept);
      (void)kept;
      rev_holders_[c.rec.id].insert(w.id);
      ++have;
    }
  }
  if (have < k) {
    UnderfullInsert(node, w.id);
  } else {
    UnderfullErase(node, w.id);
  }
}

void Directory::BuildOwnTable(MemberInfo& me) {
  // Runs before me is in the ID tree, so every bucket consists of existing
  // members only and the (i, own-digit) entries stay empty.
  for (int i = 0; i < params_.digits; ++i) {
    DigitString prefix = me.id.Prefix(i);
    for (int j : id_tree_.ChildDigits(prefix)) {
      if (j == me.id.digit(i)) continue;
      Refill(me, i, j);
    }
  }
}

void Directory::PropagateJoinScan(const MemberInfo& me) {
  for (auto& [wid, w] : members_) {
    if (wid == me.id) continue;
    ++stats_.holders_examined;
    if (!w.alive) continue;
    int cpl = me.id.CommonPrefixLen(wid);
    TMESH_DCHECK(cpl < params_.digits);  // IDs are unique
    const NeighborTable::Entry* e = w.table.entry(cpl, me.id.digit(cpl));
    if (e == nullptr || static_cast<int>(e->size()) < params_.capacity) {
      InsertIntoHolder(w, cpl, me.id.digit(cpl), me);
    }
  }
}

void Directory::PropagateJoinIndexed(const MemberInfo& me,
                                     const std::vector<bool>& fresh_level) {
  const UserId& id = me.id;
  for (int len = 1; len <= params_.digits; ++len) {
    const DigitString node = id.Prefix(len);
    const int row = len - 1;
    const int digit = id.digit(row);
    if (fresh_level[static_cast<std::size_t>(len)]) {
      // First member of a brand-new subtree: Definition 3 now requires this
      // record in every alive member under the parent prefix — an inherent
      // O(output) broadcast. (Deeper fresh levels have only `me` under the
      // parent, so their loops are empty.)
      const std::vector<UserId>& sibs = id_tree_.UsersRef(id.Prefix(row));
      for (const UserId& uid : sibs) {
        if (uid == id) continue;
        ++stats_.holders_examined;
        MemberInfo& w = InfoMut(uid);
        if (!w.alive) continue;
        InsertIntoHolder(w, row, digit, me);
      }
    } else {
      auto uf = underfull_.find(node);
      if (uf == underfull_.end()) continue;
      // Copy: InsertIntoHolder edits the set when an entry reaches K.
      std::vector<UserId> holders(uf->second.begin(), uf->second.end());
      for (const UserId& wid : holders) {
        ++stats_.holders_examined;
        MemberInfo& w = InfoMut(wid);
        if (!w.alive) {
          UnderfullErase(node, wid);  // lazy drop of failed holders
          continue;
        }
        InsertIntoHolder(w, row, digit, me);
      }
    }
  }
}

void Directory::AddMember(const UserId& id, HostId host, SimTime join_time) {
  TMESH_CHECK(id.size() == params_.digits);
  TMESH_CHECK_MSG(!Contains(id), "duplicate member ID " + id.ToString());
  TMESH_CHECK(host >= 0 && host < net_.host_count());
  TMESH_CHECK_MSG(host_index_.count(host) == 0, "host already a member");
  TMESH_CHECK(host != server_host_);

  auto [it, inserted] = members_.try_emplace(
      id, id, host, join_time, params_.digits, params_.base, params_.capacity);
  TMESH_CHECK(inserted);
  MemberInfo& me = it->second;
  ++stats_.joins;

  BuildOwnTable(me);

  // The server's table keeps the legacy nearest-K semantics: one insert
  // attempt per join (evicting the worst record when full) is O(1).
  NeighborRecord server_rec;
  server_rec.id = id;
  server_rec.host = host;
  server_rec.join_time = join_time;
  server_rec.rtt_ms = net_.RttHosts(server_host_, host);
  server_table_.Insert(0, id.digit(0), server_rec);

  // Record which prefix nodes this join creates, then insert and offer the
  // new record to exactly the tables Definition 3 obliges to take it.
  std::vector<bool> fresh_level(static_cast<std::size_t>(params_.digits) + 1,
                                false);
  for (int len = 1; len <= params_.digits; ++len) {
    fresh_level[static_cast<std::size_t>(len)] =
        !id_tree_.NodeExists(id.Prefix(len));
  }
  id_tree_.Insert(id);
  if (admission_.policy == AdmissionPolicy::kScanReference) {
    PropagateJoinScan(me);
  } else {
    PropagateJoinIndexed(me, fresh_level);
  }

  host_index_[host] = id;
  AliveInsert(id);
  ++alive_count_;
}

void Directory::AliveInsert(const UserId& id) {
  TMESH_CHECK(alive_ids_.insert(id).second);
}

void Directory::AliveErase(const UserId& id) {
  TMESH_CHECK(alive_ids_.erase(id) == 1);
}

bool Directory::IsAlive(const UserId& id) const {
  auto it = members_.find(id);
  return it != members_.end() && it->second.alive;
}

const MemberInfo& Directory::Info(const UserId& id) const {
  auto it = members_.find(id);
  TMESH_CHECK_MSG(it != members_.end(), "unknown member " + id.ToString());
  return it->second;
}

const UserId* Directory::IdOfHost(HostId h) const {
  auto it = host_index_.find(h);
  return it == host_index_.end() ? nullptr : &it->second;
}

std::vector<UserId> Directory::AliveMembers() const {
  // std::set iterates in sorted order, which is exactly the old walk's
  // std::map iteration order.
  return std::vector<UserId>(alive_ids_.begin(), alive_ids_.end());
}

std::optional<UserId> Directory::RandomAliveMember(Rng& rng) const {
  if (alive_count_ == 0) return std::nullopt;
  // Indexed draw over the sorted alive set: the same index resolves to the
  // same ID as the previous sorted-vector (and original std::map walk)
  // implementation, so the random picks are unchanged. The O(index) advance
  // only runs for simulator-scale groups; the big-N campaigns never call
  // this, and keeping the set makes admission O(log N) rather than paying
  // the vector's O(N) middle-insert per join.
  auto it = alive_ids_.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(rng.UniformInt(
                       0, static_cast<std::int64_t>(alive_ids_.size()) - 1)));
  return *it;
}

void Directory::RemoveFromAllTables(const UserId& id) {
  if (admission_.policy == AdmissionPolicy::kScanReference) {
    for (auto& [wid, w] : members_) {
      if (wid == id) continue;
      ++stats_.holders_examined;
      int cpl = id.CommonPrefixLen(wid);
      if (w.table.Remove(cpl, id.digit(cpl), id)) {
        ++stats_.holders_updated;
        if (w.alive) Refill(w, cpl, id.digit(cpl));
      }
    }
  } else {
    auto rv = rev_holders_.find(id);
    if (rv != rev_holders_.end()) {
      // The set itself is stable while refills add *other* members' holder
      // edges (node-based map: no element moves on rehash).
      const IdSet& holders = rv->second;
      for (const UserId& wid : holders) {
        ++stats_.holders_examined;
        MemberInfo& w = InfoMut(wid);
        int cpl = id.CommonPrefixLen(wid);
        bool removed = w.table.Remove(cpl, id.digit(cpl), id);
        TMESH_DCHECK(removed);
        (void)removed;
        ++stats_.holders_updated;
        if (w.alive) Refill(w, cpl, id.digit(cpl));
      }
    }
  }
  rev_holders_.erase(id);
  if (server_table_.Remove(0, id.digit(0), id)) {
    RefillServer(id.digit(0));
  }
}

void Directory::PurgeMember(const UserId& id) {
  ++stats_.removals;
  MemberInfo& gone = InfoMut(id);
  // Unregister the departing member's own underfull entries while its
  // prefix nodes are still queryable.
  for (int i = 0; i < params_.digits; ++i) {
    DigitString prefix = id.Prefix(i);
    for (int j : id_tree_.ChildDigits(prefix)) {
      if (j == id.digit(i)) continue;
      UnderfullErase(prefix.Child(j), id);
    }
  }
  // The departing member stops holding anyone in its own table.
  for (int i = 0; i < gone.table.rows(); ++i) {
    for (const auto& [digit, entry] : gone.table.row(i)) {
      (void)digit;
      for (const NeighborRecord& rec : entry) {
        auto rv = rev_holders_.find(rec.id);
        TMESH_DCHECK(rv != rev_holders_.end());
        if (rv != rev_holders_.end()) {
          rv->second.erase(id);
          if (rv->second.empty()) rev_holders_.erase(rv);
        }
      }
    }
  }
  // Underfull sets of subtrees that vanish with this member go wholesale;
  // any surviving entries that mapped there are emptied by the holder pass
  // below (the last member's record was their only possible content).
  std::vector<DigitString> vanishing;
  for (int len = 1; len <= params_.digits; ++len) {
    DigitString p = id.Prefix(len);
    if (id_tree_.CountWithPrefix(p) == 1) vanishing.push_back(p);
  }
  // Order matters: drop the member from the ID tree first so refills do not
  // consider it a candidate.
  id_tree_.Erase(id);
  for (const DigitString& p : vanishing) underfull_.erase(p);
  host_index_.erase(gone.host);
  RemoveFromAllTables(id);
  members_.erase(id);
}

void Directory::RemoveMember(UserId id) {
  TMESH_CHECK_MSG(Contains(id), "removing unknown member");
  if (Info(id).alive) {
    AliveErase(id);
    --alive_count_;
  }
  PurgeMember(id);
}

void Directory::MarkFailed(UserId id) {
  auto it = members_.find(id);
  TMESH_CHECK(it != members_.end());
  TMESH_CHECK_MSG(it->second.alive, "member already failed");
  it->second.alive = false;
  // The member stays in the ID tree, in other tables, and (lazily) in the
  // underfull sets until RepairFailure purges it.
  AliveErase(id);
  --alive_count_;
}

void Directory::RepairFailure(UserId id) {
  auto it = members_.find(id);
  TMESH_CHECK(it != members_.end());
  TMESH_CHECK_MSG(!it->second.alive, "repairing a live member");
  PurgeMember(id);
}

void Directory::RefillServer(int digit) {
  const NeighborTable::Entry* e = server_table_.entry(0, digit);
  int have = e == nullptr ? 0 : static_cast<int>(e->size());
  if (have >= params_.capacity) return;
  DigitString subtree = DigitString{}.Child(digit);
  // Exact global-nearest refill (legacy semantics). The scan is O(bucket),
  // but it only runs when a removed member actually sat in the server's
  // K·B-record table, so the amortized cost per removal is O(K).
  const NeighborRecord* best = nullptr;
  NeighborRecord best_rec;
  for (const UserId& cand : id_tree_.UsersRef(subtree)) {
    const MemberInfo& c = Info(cand);
    if (!c.alive) continue;
    if (server_table_.ContainsNeighbor(0, digit, cand)) continue;
    ++stats_.server_candidates;
    NeighborRecord rec = MakeRecord(c, server_host_);
    if (best == nullptr || rec.rtt_ms < best_rec.rtt_ms) {
      best_rec = rec;
      best = &best_rec;
    }
  }
  if (best != nullptr) {
    server_table_.Insert(0, digit, best_rec);
    RefillServer(digit);  // keep filling until K or candidates exhausted
  }
}

void Directory::CheckKConsistency() const {
  const int d = params_.digits;
  const int k = params_.capacity;
  auto check_table = [&](const NeighborTable& table, const UserId* owner_id,
                         int rows) {
    for (int i = 0; i < rows; ++i) {
      DigitString prefix =
          owner_id == nullptr ? DigitString{} : owner_id->Prefix(i);
      const std::set<int>& digits = id_tree_.ChildDigits(prefix);
      // (1) Entries present where the definition requires them.
      for (int j : digits) {
        if (owner_id != nullptr && j == owner_id->digit(i)) {
          TMESH_CHECK_MSG(table.entry(i, j) == nullptr,
                          "(i, own-digit) entry must be empty");
          continue;
        }
        int m = id_tree_.CountWithPrefix(prefix.Child(j));
        const NeighborTable::Entry* e = table.entry(i, j);
        int have = e == nullptr ? 0 : static_cast<int>(e->size());
        TMESH_CHECK_MSG(have == std::min(k, m),
                        "entry must hold min(K, m) neighbors");
        if (e == nullptr) continue;
        double prev = -1.0;
        for (const NeighborRecord& rec : *e) {
          TMESH_CHECK_MSG(prefix.Child(j).IsPrefixOf(rec.id),
                          "record outside the entry's ID subtree");
          TMESH_CHECK_MSG(Contains(rec.id), "stale record of absent member");
          TMESH_CHECK_MSG(rec.rtt_ms >= prev, "entry not sorted by RTT");
          prev = rec.rtt_ms;
        }
      }
      // (2) No entries outside existing subtrees.
      for (const auto& [j, e] : table.row(i)) {
        (void)e;
        TMESH_CHECK_MSG(digits.count(j) > 0,
                        "entry for an empty ID subtree");
      }
    }
  };

  for (const auto& [id, m] : members_) {
    if (!m.alive) continue;
    check_table(m.table, &id, d);
  }
  check_table(server_table_, nullptr, 1);
}

void Directory::CheckIndexIntegrity() const {
  const int k = params_.capacity;
  // (1) The reverse holder index matches member-table contents exactly.
  std::size_t table_records = 0;
  for (const auto& [wid, w] : members_) {
    for (int i = 0; i < w.table.rows(); ++i) {
      for (const auto& [digit, entry] : w.table.row(i)) {
        (void)digit;
        for (const NeighborRecord& rec : entry) {
          ++table_records;
          auto rv = rev_holders_.find(rec.id);
          TMESH_CHECK_MSG(
              rv != rev_holders_.end() && rv->second.count(wid) > 0,
              "record missing from the reverse holder index");
        }
      }
    }
  }
  std::size_t rev_records = 0;
  for (const auto& [id, holders] : rev_holders_) {
    TMESH_CHECK_MSG(Contains(id), "reverse index entry for absent member");
    TMESH_CHECK_MSG(!holders.empty(), "empty reverse index entry retained");
    rev_records += holders.size();
  }
  TMESH_CHECK_MSG(rev_records == table_records,
                  "reverse holder index does not match table contents");

  // (2) Underfull-set soundness: registered alive holders really do have a
  // below-K entry mapped to an existing node they sit beside.
  for (const auto& [node, holders] : underfull_) {
    TMESH_CHECK_MSG(id_tree_.NodeExists(node),
                    "underfull set for a vanished ID-tree node");
    TMESH_CHECK_MSG(!holders.empty(), "empty underfull set retained");
    const int row = node.size() - 1;
    for (const UserId& wid : holders) {
      auto mi = members_.find(wid);
      TMESH_CHECK_MSG(mi != members_.end(),
                      "underfull holder is not a member");
      const MemberInfo& w = mi->second;
      if (!w.alive) continue;  // dropped lazily on the next join there
      TMESH_CHECK_MSG(w.id.Prefix(row) == node.Prefix(row) &&
                          w.id.digit(row) != node.digit(row),
                      "underfull holder outside the node's parent subtree");
      const NeighborTable::Entry* e = w.table.entry(row, node.digit(row));
      TMESH_CHECK_MSG(e == nullptr || static_cast<int>(e->size()) < k,
                      "underfull set holds a full entry");
    }
  }

  // (3) Completeness: every alive member's below-K entry slot (including
  // still-absent entries for existing sibling subtrees) is registered, so a
  // join into that subtree reaches it.
  for (const auto& [wid, w] : members_) {
    if (!w.alive) continue;
    for (int i = 0; i < params_.digits; ++i) {
      DigitString prefix = w.id.Prefix(i);
      for (int j : id_tree_.ChildDigits(prefix)) {
        if (j == w.id.digit(i)) continue;
        const NeighborTable::Entry* e = w.table.entry(i, j);
        int have = e == nullptr ? 0 : static_cast<int>(e->size());
        if (have >= k) continue;
        auto uf = underfull_.find(prefix.Child(j));
        TMESH_CHECK_MSG(uf != underfull_.end() && uf->second.count(wid) > 0,
                        "below-K entry missing from its underfull set");
      }
    }
  }
}

}  // namespace tmesh
