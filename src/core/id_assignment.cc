#include "core/id_assignment.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/stats.h"

namespace tmesh {

IdAssigner::IdAssigner(Directory& directory, IdAssignParams params,
                       std::uint64_t seed)
    : dir_(directory), params_(std::move(params)), rng_(seed) {
  TMESH_CHECK_MSG(static_cast<int>(params_.thresholds_ms.size()) ==
                      dir_.params().digits - 1,
                  "need exactly D-1 delay thresholds R_1..R_{D-1}");
  TMESH_CHECK(params_.collect_target >= 1);
}

double IdAssigner::GatewayRtt(HostId a, HostId b) const {
  return params_.gnp != nullptr ? params_.gnp->EstimatedRtt(a, b)
                                : dir_.network().RttGateways(a, b);
}

std::optional<UserId> IdAssigner::ServerAssignTail(const DigitString& prefix,
                                                   int from_pos) {
  const int d = dir_.params().digits;
  const int b = dir_.params().base;
  TMESH_CHECK(prefix.size() == from_pos);
  if (from_pos == d) {
    // A complete ID: unique iff no user occupies it.
    if (dir_.id_tree().CountWithPrefix(prefix) == 0) return prefix;
    return std::nullopt;
  }

  const std::set<int>& used = dir_.id_tree().ChildDigits(prefix);
  // Prefer a fresh (unused) digit: the new subtree is empty, so the rest of
  // the ID can be all zeros (§3.1.4: the user becomes "a user in a new
  // level-(l+1) subtree to which none of the other users belong").
  if (static_cast<int>(used.size()) < b) {
    int pick;
    do {
      pick = static_cast<int>(rng_.UniformInt(0, b - 1));
    } while (used.count(pick) > 0);
    DigitString id = prefix.Child(pick);
    while (id.size() < d) id.Append(0);
    return id;
  }
  // Every digit occupied: descend into subtrees, least populated first, and
  // backtrack on failure.
  std::vector<int> order(used.begin(), used.end());
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    int cx = dir_.id_tree().CountWithPrefix(prefix.Child(x));
    int cy = dir_.id_tree().CountWithPrefix(prefix.Child(y));
    if (cx != cy) return cx < cy;
    return x < y;
  });
  for (int digit : order) {
    auto id = ServerAssignTail(prefix.Child(digit), from_pos + 1);
    if (id.has_value()) return id;
  }
  return std::nullopt;
}

std::optional<UserId> IdAssigner::ServerAssignLastDigit(
    const DigitString& prefix) {
  const int d = dir_.params().digits;
  TMESH_CHECK(prefix.size() == d - 1);
  // Normal case: a free last digit within the user's level-(D-1) subtree.
  auto id = ServerAssignTail(prefix, d - 1);
  if (id.has_value()) return id;
  // Footnote 3: the subtree is full; try modifying ever-earlier digits to
  // make a unique ID, falling back to a brand-new level-1 subtree (and,
  // beyond the footnote, to a full backtracking search so we only report
  // failure when the ID space is truly exhausted).
  for (int l = d - 2; l >= 0; --l) {
    id = ServerAssignTail(prefix.Prefix(l), l);
    if (id.has_value()) return id;
  }
  return std::nullopt;
}

std::optional<UserId> IdAssigner::AssignId(HostId joiner,
                                           IdAssignStats* stats) {
  IdAssignStats local;
  IdAssignStats& st = stats != nullptr ? *stats : local;
  st = IdAssignStats{};

  const int d = dir_.params().digits;

  // First join: all zeros (§3.1).
  if (dir_.alive_count() == 0) {
    DigitString id;
    while (id.size() < d) id.Append(0);
    if (dir_.id_tree().CountWithPrefix(id) == 0) return id;
    return ServerAssignTail(DigitString{}, 0);
  }

  // The key server hands the joiner the record of one existing user.
  std::optional<UserId> contact = dir_.RandomAliveMember(rng_);
  TMESH_CHECK(contact.has_value());

  DigitString my_prefix;  // digits determined so far
  // Users known to belong to the current prefix's subtree (seeds for the
  // next level's queries). Initially just the contact (prefix is null, so
  // everyone qualifies).
  std::vector<NeighborRecord> seeds;
  {
    const MemberInfo& c = dir_.Info(*contact);
    NeighborRecord rec;
    rec.id = c.id;
    rec.host = c.host;
    rec.join_time = c.join_time;
    seeds.push_back(rec);
  }

  // Step-1 buckets, indexed by digit and reused across levels: buckets[j]
  // holds collected users whose IDs extend my_prefix with digit j, in
  // collection order, and `order` lists the digits whose bucket is non-empty,
  // ascending. Records are only appended and each query takes its bucket's
  // first unqueried record, so the queried records are always a prefix of
  // the bucket: [0, queried).
  struct Bucket {
    std::vector<NeighborRecord> recs;
    std::size_t queried = 0;
  };
  std::vector<Bucket> buckets(static_cast<std::size_t>(dir_.params().base));
  std::vector<int> order;
  const auto target = static_cast<std::size_t>(params_.collect_target);

  for (int i = 0; i <= d - 2; ++i) {
    // ---- Step 1: collect up to P records per (i,j)-ID subtree. ----------
    for (int j : order) {
      buckets[static_cast<std::size_t>(j)].recs.clear();
      buckets[static_cast<std::size_t>(j)].queried = 0;
    }
    order.clear();

    auto admit = [&](const NeighborRecord& rec) {
      if (!my_prefix.IsPrefixOf(rec.id)) return;
      const int j = rec.id.digit(i);
      Bucket& bucket = buckets[static_cast<std::size_t>(j)];
      // The joiner only needs P users per subtree (§3.1.1) — extra records
      // would just cost extra RTT probes in step 2.
      if (bucket.recs.size() >= target) return;
      for (const NeighborRecord& have : bucket.recs) {
        if (have.id == rec.id) return;  // already collected
      }
      // The directory lookup comes last: most records are rejected above.
      if (!dir_.IsAlive(rec.id)) return;
      if (bucket.recs.empty()) {
        order.insert(std::lower_bound(order.begin(), order.end(), j), j);
      }
      bucket.recs.push_back(rec);
    };
    for (const NeighborRecord& s : seeds) admit(s);

    // Keep querying: per subtree j, query collected-but-unqueried users
    // until P records are in hand for j or everyone collected from j has
    // been queried (§3.1.1). Each round queries the first such subtree in
    // digit order, since a reply may fill several subtrees.
    while (true) {
      Bucket* next = nullptr;
      for (int j : order) {
        Bucket& bucket = buckets[static_cast<std::size_t>(j)];
        if (bucket.recs.size() < target &&
            bucket.queried < bucket.recs.size()) {
          next = &bucket;
          break;
        }
      }
      if (next == nullptr) break;
      // Copy: the reply may append to this bucket.
      const UserId queried = next->recs[next->queried++].id;
      ++st.queries;
      dir_.VisitQueryRecords(queried, my_prefix, admit);
    }

    if (order.empty()) {
      // Nobody in this subtree (can happen when the seed users left):
      // fall through to the key server.
      st.server_assigned_tail = true;
      return ServerAssignTail(my_prefix, i);
    }

    // ---- Steps 2+3: measure gateway RTTs, pick the closest subtree. -----
    int best_digit = -1;
    double best_f = 0.0;
    for (int j : order) {
      const std::vector<NeighborRecord>& recs =
          buckets[static_cast<std::size_t>(j)].recs;
      std::vector<double> rtts;
      rtts.reserve(recs.size());
      for (const NeighborRecord& rec : recs) {
        rtts.push_back(GatewayRtt(joiner, rec.host));
        if (params_.gnp == nullptr) ++st.rtt_probes;
      }
      double f = Percentile(std::move(rtts), params_.percentile);
      if (best_digit == -1 || f < best_f ||
          (f == best_f && j < best_digit)) {
        best_digit = j;
        best_f = f;
      }
    }

    if (best_f <= params_.thresholds_ms[static_cast<std::size_t>(i)]) {
      // Close enough: adopt the digit and descend (§3.1.3 case 1).
      my_prefix.Append(best_digit);
      ++st.digits_self_determined;
      seeds = std::move(buckets[static_cast<std::size_t>(best_digit)].recs);
      continue;
    }
    // Not close to anyone (§3.1.3 case 2): the key server assigns the rest.
    st.server_assigned_tail = true;
    return ServerAssignTail(my_prefix, i);
  }

  // ---- Step 4: the key server assigns the last digit. -------------------
  return ServerAssignLastDigit(my_prefix);
}

std::optional<UserId> IdAssigner::AssignIdCentralized(HostId joiner,
                                                      IdAssignStats* stats) {
  IdAssignStats local;
  IdAssignStats& st = stats != nullptr ? *stats : local;
  st = IdAssignStats{};

  const int d = dir_.params().digits;
  if (dir_.alive_count() == 0) {
    DigitString id;
    while (id.size() < d) id.Append(0);
    if (dir_.id_tree().CountWithPrefix(id) == 0) return id;
    return ServerAssignTail(DigitString{}, 0);
  }

  DigitString my_prefix;
  for (int i = 0; i <= d - 2; ++i) {
    int best_digit = -1;
    double best_f = 0.0;
    for (int j : dir_.id_tree().ChildDigits(my_prefix)) {
      std::vector<double> rtts;
      for (const UserId& w : dir_.id_tree().UsersWithPrefix(
               my_prefix.Child(j))) {
        if (!dir_.IsAlive(w)) continue;
        rtts.push_back(GatewayRtt(joiner, dir_.HostOf(w)));
      }
      if (rtts.empty()) continue;
      double f = Percentile(std::move(rtts), params_.percentile);
      if (best_digit == -1 || f < best_f || (f == best_f && j < best_digit)) {
        best_digit = j;
        best_f = f;
      }
    }
    if (best_digit != -1 &&
        best_f <= params_.thresholds_ms[static_cast<std::size_t>(i)]) {
      my_prefix.Append(best_digit);
      ++st.digits_self_determined;
      continue;
    }
    st.server_assigned_tail = true;
    return ServerAssignTail(my_prefix, i);
  }
  return ServerAssignLastDigit(my_prefix);
}

}  // namespace tmesh
