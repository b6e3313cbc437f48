// Group membership and neighbor-table maintenance.
//
// The Directory plays the role the Silk join/leave protocols [15, 12] play
// in the real system: it keeps every member's neighbor table K-consistent
// (Definition 3) across joins, leaves, and failure recoveries. The paper
// itself runs its simulations this way — "the join and leave protocols of
// T-mesh are based on the Silk protocols, but simplified to improve
// simulation efficiency" (§4) and "we use a centralized controller to
// simulate the J joins and L leaves" (§4.2) — so a centralized, incrementally
// maintained view is the faithful substrate here, and the K-consistency
// property is what the tests pin down.
//
// Admission discipline (see DESIGN.md "Indexed directory admission"): each
// (i,j) entry holds min(K, m) records from the right ID subtree in ascending
// RTT order — Definition 3 exactly — with the *choice* of records made by
// bounded canonical candidate windows over the ID-tree bucket lists rather
// than a global nearest-K scan, and no eviction on later joins (a full entry
// stays as-is; a joiner is only offered to entries still below K). Two
// interchangeable engines implement this one discipline:
//   - AdmissionPolicy::kIndexed (default): prefix-bucket index — a reverse
//     holder index plus per-node underfull-entry sets — so AddMember and
//     RemoveMember touch only the members whose tables actually change.
//   - AdmissionPolicy::kScanReference: the retained all-members scan, kept
//     as the differential-test oracle; byte-identical tables by design.
// The key server's own table keeps the exact legacy semantics (nearest-K per
// first digit with eviction on join, global-nearest refill on removal).
//
// Failure model: MarkFailed() marks a member dead *without* repairing any
// tables (the window between a crash and its detection); forwarding then
// relies on the K-1 backup neighbors per entry (§2.3). RepairFailure()
// completes recovery, restoring K-consistency among the survivors.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/digit_string.h"
#include "common/rng.h"
#include "core/group_view.h"
#include "core/id_tree.h"
#include "core/neighbor_table.h"
#include "sim/simulator.h"
#include "topology/network.h"

namespace tmesh {

struct MemberInfo {
  UserId id;
  HostId host = kNoHost;
  SimTime join_time = 0;
  bool alive = true;
  NeighborTable table;

  MemberInfo(const UserId& u, HostId h, SimTime t, int rows, int base, int cap)
      : id(u), host(h), join_time(t), table(rows, base, cap) {}
};

// How AddMember/RemoveMember locate the neighbor-table entries they must
// update. Both policies implement the same admission discipline and produce
// byte-identical tables (pinned by tests/directory_test.cc's differential
// suite); they differ only in cost.
enum class AdmissionPolicy {
  kIndexed,        // prefix-bucket index: O(touched members) per operation
  kScanReference,  // all-members scan: O(N) per operation (test oracle)
};

struct AdmissionOptions {
  AdmissionPolicy policy = AdmissionPolicy::kIndexed;
  // Canonical candidate window: entry builds and refills RTT-probe at most
  // this many eligible candidates, in ID-tree bucket order. 0 means
  // 4 * capacity. Must end up >= capacity so windowed picks still reach
  // min(K, m) records per entry.
  int window = 0;
};

class Directory : public GroupView {
 public:
  Directory(const Network& net, const GroupParams& params, HostId server_host,
            AdmissionOptions admission = {});

  const GroupParams& params() const override { return params_; }
  HostId server_host() const override { return server_host_; }
  const Network& network() const override { return net_; }
  const AdmissionOptions& admission() const { return admission_; }

  // --- membership -----------------------------------------------------
  void AddMember(const UserId& id, HostId host, SimTime join_time);
  // Graceful leave: the member's record is deleted from all tables and
  // every shrunk entry is refilled (§3.2, Silk leave protocol).
  void RemoveMember(UserId id);  // by value: callers often pass references
                                 // into storage this call mutates
  // Crash: member stops responding; no table is updated yet.
  void MarkFailed(UserId id);
  // Failure recovery: the failed member's records are purged and entries
  // refilled from live members (§3.2, [13]).
  void RepairFailure(UserId id);

  bool Contains(const UserId& id) const override {
    return members_.count(id) > 0;
  }
  bool IsAlive(const UserId& id) const override;
  int member_count() const { return static_cast<int>(members_.size()); }
  int alive_count() const { return alive_count_; }

  // --- lookup ----------------------------------------------------------
  const MemberInfo& Info(const UserId& id) const;
  const NeighborTable& TableOf(const UserId& id) const override {
    return Info(id).table;
  }
  const NeighborTable& ServerTable() const override { return server_table_; }
  HostId HostOf(const UserId& id) const override { return Info(id).host; }
  const UserId* IdOfHost(HostId h) const;
  const IdTree& id_tree() const { return id_tree_; }
  const std::map<UserId, MemberInfo>& members() const { return members_; }

  std::vector<UserId> AliveMembers() const;
  // A uniformly random alive member (what the key server hands a joining
  // user as its first contact, §3.1.1). Nullopt if the group is empty.
  std::optional<UserId> RandomAliveMember(Rng& rng) const;

  // Calls visit(record) for each record a member `w` returns for a query
  // with `target_prefix` (§3.1.1): w's own record first if it matches (with
  // rtt_ms 0, the RTT to itself), then every neighbor in w's table whose ID
  // has the prefix, in table order. Only alive neighbors respond to the
  // follow-up RTT probes, but the query returns whatever the table holds.
  // `visit` must not modify the directory.
  template <typename Visit>
  void VisitQueryRecords(const UserId& w, const DigitString& target_prefix,
                         Visit&& visit) const {
    const MemberInfo& info = Info(w);
    // Row i holds records sharing exactly i digits with w, so when w has
    // the prefix, no record in a row shorter than the prefix matches.
    int first_row = 0;
    if (target_prefix.IsPrefixOf(w)) {
      visit(NeighborRecord{info.id, info.host, 0.0, info.join_time});
      first_row = target_prefix.size();
    }
    for (int i = first_row; i < info.table.rows(); ++i) {
      for (const auto& [digit, entry] : info.table.row(i)) {
        (void)digit;
        for (const NeighborRecord& rec : entry) {
          if (target_prefix.IsPrefixOf(rec.id)) visit(rec);
        }
      }
    }
  }

  // --- observability ----------------------------------------------------
  // Monotonic operation counters; tests snapshot deltas to pin admission
  // complexity (touched members per join must not scale with N on the
  // indexed policy).
  struct OpStats {
    std::int64_t joins = 0;
    std::int64_t removals = 0;    // RemoveMember + RepairFailure purges
    std::int64_t holders_examined = 0;   // members inspected for an update
    std::int64_t holders_updated = 0;    // member-table writes on others
    std::int64_t candidates_probed = 0;  // windowed RTT probes (build/refill)
    std::int64_t refill_calls = 0;
    std::int64_t server_candidates = 0;  // server-table refill scans
  };
  const OpStats& op_stats() const { return stats_; }

  // --- invariants -------------------------------------------------------
  // Verifies Definition 3 (K-consistency) for every alive member and the
  // key server's table; throws on any violation. Only meaningful when no
  // unrepaired failures are outstanding.
  void CheckKConsistency() const;
  // Verifies the admission index against the tables it summarizes: the
  // reverse holder index matches table contents exactly, and every alive
  // member's below-K entry is registered in the underfull set of its ID-tree
  // node (so future joins reach it). O(N·D·B); test/debug only. Valid under
  // both policies — the scan path maintains the same index.
  void CheckIndexIntegrity() const;

 private:
  using IdSet = std::unordered_set<UserId>;

  MemberInfo& InfoMut(const UserId& id);
  void Refill(MemberInfo& w, int row, int digit);
  void RefillServer(int digit);
  NeighborRecord MakeRecord(const MemberInfo& of, HostId owner_host) const;
  // Build every entry of a brand-new member's own table via windowed picks.
  // Must run before the member is inserted into the ID tree.
  void BuildOwnTable(MemberInfo& me);
  // Insert `who`'s record into w's (row, digit) entry, which must be below
  // capacity, and maintain the reverse/underfull indexes.
  void InsertIntoHolder(MemberInfo& w, int row, int digit,
                        const MemberInfo& who);
  void PropagateJoinScan(const MemberInfo& me);
  void PropagateJoinIndexed(const MemberInfo& me,
                            const std::vector<bool>& fresh_level);
  void RemoveFromAllTables(const UserId& id);
  // Shared tail of RemoveMember/RepairFailure: index unregistration, ID-tree
  // erase, table purge, MemberInfo erase.
  void PurgeMember(const UserId& id);
  void UnderfullInsert(const DigitString& node, const UserId& holder);
  void UnderfullErase(const DigitString& node, const UserId& holder);

  // Incremental maintenance of the sorted alive-ID set. Sorted iteration
  // preserves the exact order (and therefore the exact RandomAliveMember
  // picks) of the original materialize-from-std::map implementation, while
  // insert/erase stay O(log N) — a sorted vector here cost an O(N) memmove
  // per admission, which dominated everything the indexed admission path
  // saved at 10^5 members.
  void AliveInsert(const UserId& id);
  void AliveErase(const UserId& id);

  const Network& net_;
  GroupParams params_;
  HostId server_host_;
  AdmissionOptions admission_;
  int window_;  // resolved candidate window (>= capacity)
  IdTree id_tree_;
  std::map<UserId, MemberInfo> members_;
  std::unordered_map<HostId, UserId> host_index_;
  NeighborTable server_table_;
  std::set<UserId> alive_ids_;  // mirrors {id : Info(id).alive}
  int alive_count_ = 0;
  OpStats stats_;

  // Reverse holder index: rev_holders_[x] = the members whose tables hold
  // x's record (the row is implied: cpl(holder, x)). Drives O(#holders)
  // removal. Maintained under both policies.
  std::unordered_map<UserId, IdSet> rev_holders_;
  // underfull_[node] = alive holders whose entry mapped to that ID-tree node
  // holds fewer than K records (including holders with no entry yet); these
  // are exactly the tables a join into `node` must update. Dead holders are
  // dropped lazily. Maintained under both policies.
  std::unordered_map<DigitString, IdSet> underfull_;
};

}  // namespace tmesh
