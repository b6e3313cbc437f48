// keytree_1m: 10^6 members built into both key trees in one batch interval
// (set-up), then churn epochs of 1000 joins and 1000 leaves, each applied
// and rekeyed serially on the modified key tree (§2.4, shards = 1) and on
// the WGL degree-4 tree (§4.2 baseline). No directory, topology or
// simulator code runs, so this is the workload where the key trees are
// all of the time.
//
// Member IDs (D = 5, B = 256, hash-derived and unique) and the leave picks
// are drawn from the seed before any timing starts.
#include <memory>
#include <unordered_set>

#include "core/modified_key_tree.h"
#include "keytree/wgl_key_tree.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tmesh;

constexpr int kUsers = 1000000;
constexpr int kBatch = 1000;  // joins and leaves per churn epoch, each
constexpr long kMaxEpochs = 800;
constexpr int kDigits = 5;
constexpr int kBase = 256;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Schedule {
  std::vector<UserId> build_ids;               // kUsers
  std::vector<UserId> join_ids;                // kBatch per epoch
  std::vector<std::uint32_t> wgl_leave_picks;  // kBatch per epoch
  std::vector<std::uint32_t> mtree_leave_picks;
};

Schedule MakeSchedule(std::uint64_t seed, long epochs) {
  Schedule s;
  std::uint64_t state = SplitMix64(seed ^ 0x5ca1ab1eull);
  std::unordered_set<UserId> used;
  used.reserve(static_cast<std::size_t>(kUsers + epochs * kBatch));
  auto fresh = [&]() {
    for (;;) {
      std::uint64_t h = SplitMix64(state++);
      UserId id;
      for (int d = 0; d < kDigits; ++d) {
        id = id.Child(static_cast<int>(h % kBase));
        h = SplitMix64(h);
      }
      if (used.insert(id).second) return id;
    }
  };
  s.build_ids.reserve(kUsers);
  for (int i = 0; i < kUsers; ++i) s.build_ids.push_back(fresh());
  const std::size_t n = static_cast<std::size_t>(epochs * kBatch);
  s.join_ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.join_ids.push_back(fresh());
  std::uint64_t pick = SplitMix64(seed + 0x9e3779b9ull);
  for (std::size_t i = 0; i < n; ++i) {
    s.wgl_leave_picks.push_back(static_cast<std::uint32_t>(SplitMix64(pick++)));
    s.mtree_leave_picks.push_back(static_cast<std::uint32_t>(SplitMix64(pick++)));
  }
  return s;
}

struct Trees {
  WglKeyTree wgl{4};
  ModifiedKeyTree mtree{kDigits};
  std::vector<MemberId> wgl_present;
  std::vector<UserId> mtree_present;
  MemberId next_member = 0;
};

// The build interval: every initial member joins both trees in one batch.
std::unique_ptr<Trees> Build(const Schedule& s, Tracer* tr, RunResult& r) {
  auto t = std::make_unique<Trees>();
  std::vector<MemberId> joins(kUsers);
  for (auto& m : joins) m = t->next_member++;
  const std::size_t wgl_cost = Traced(tr, Layer::kWglRekey, [&] {
    return t->wgl.Rekey(joins, {}).RekeyCost();
  });
  t->wgl_present = std::move(joins);
  Traced(tr, Layer::kMtreeJoinLeave, [&] {
    for (const UserId& id : s.build_ids) t->mtree.Join(id);
  });
  t->mtree_present = s.build_ids;
  const std::size_t mtree_cost = Traced(
      tr, Layer::kMtreeRekey, [&] { return t->mtree.Rekey(1).RekeyCost(); });
  r.digest.Add(wgl_cost);
  r.digest.Add(mtree_cost);
  ++r.attempted;
  if (wgl_cost == 0 || mtree_cost == 0) r.Fail("build interval emitted nothing");
  t->wgl.ResetOpStats();
  return t;
}

}  // namespace

RunResult RunKeytree(const RunOptions& o) {
  RunResult r;
  const long max_epochs = o.steps > 0 ? o.steps : kMaxEpochs;
  const Schedule s = MakeSchedule(o.seed, max_epochs);

  Tracer setup_tracer;
  Tracer tracer;
  Tracer* tr = o.traced ? &tracer : nullptr;
  std::unique_ptr<Trees> t;
  if (!o.traced) {
    std::vector<double> setup;
    for (int i = 0; i < kSetups; ++i) {
      t.reset();  // free the previous trees before timing the next build
      RunResult one;
      const double t0 = NowSeconds();
      t = Build(s, nullptr, one);
      setup.push_back(NowSeconds() - t0);
      r.attempted += one.attempted;
      r.failed += one.failed;
      r.errors.insert(r.errors.end(), one.errors.begin(), one.errors.end());
      r.digest = one.digest;
    }
    r.e2e["setup_s"] = Median(setup);
    r.detail["setup_samples"] = static_cast<double>(setup.size());
  } else {
    t = Build(s, &setup_tracer, r);
  }

  std::vector<double> epoch_ms, wgl_encs, mtree_encs;
  std::vector<MemberId> joins, leaves;
  std::vector<UserId> mtree_leaves;
  const double start = NowSeconds();
  for (long e = 0; e < max_epochs && StepsLeft(o, e, start); ++e) {
    // Batch selection is harness work, outside the epoch's timing.
    const std::size_t base = static_cast<std::size_t>(e) * kBatch;
    joins.clear();
    leaves.clear();
    mtree_leaves.clear();
    for (int j = 0; j < kBatch; ++j) joins.push_back(t->next_member++);
    for (int l = 0; l < kBatch; ++l) {
      const std::size_t i = s.wgl_leave_picks[base + l] % t->wgl_present.size();
      leaves.push_back(t->wgl_present[i]);
      t->wgl_present[i] = t->wgl_present.back();
      t->wgl_present.pop_back();
    }
    for (int l = 0; l < kBatch; ++l) {
      const std::size_t i =
          s.mtree_leave_picks[base + l] % t->mtree_present.size();
      mtree_leaves.push_back(t->mtree_present[i]);
      t->mtree_present[i] = t->mtree_present.back();
      t->mtree_present.pop_back();
    }
    const auto join_begin =
        s.join_ids.begin() + static_cast<std::ptrdiff_t>(base);

    r.attempted += 4 * kBatch;
    const double t0 = NowSeconds();
    const std::size_t wc = Traced(tr, Layer::kWglRekey, [&] {
      return t->wgl.Rekey(joins, leaves).RekeyCost();
    });
    Traced(tr, Layer::kMtreeJoinLeave, [&] {
      for (auto it = join_begin; it != join_begin + kBatch; ++it) {
        t->mtree.Join(*it);
      }
      for (const UserId& id : mtree_leaves) t->mtree.Leave(id);
    });
    const std::size_t mc = Traced(
        tr, Layer::kMtreeRekey, [&] { return t->mtree.Rekey(1).RekeyCost(); });
    epoch_ms.push_back((NowSeconds() - t0) * 1e3);
    t->wgl_present.insert(t->wgl_present.end(), joins.begin(), joins.end());
    t->mtree_present.insert(t->mtree_present.end(), join_begin,
                            join_begin + kBatch);
    wgl_encs.push_back(static_cast<double>(wc));
    mtree_encs.push_back(static_cast<double>(mc));
    r.digest.Add(wc);
    r.digest.Add(mc);
    if (wc == 0 || mc == 0) {
      r.Fail("epoch " + std::to_string(e) + " emitted nothing");
    }
    if (t->wgl.member_count() != static_cast<int>(t->wgl_present.size()) ||
        t->mtree.user_count() != static_cast<int>(t->mtree_present.size())) {
      r.Fail("epoch " + std::to_string(e) + ": population drifted");
    }
    ++r.steps;
  }
  r.measured_s = NowSeconds() - start;

  // Structural invariants of both trees, once, after the measured phase.
  try {
    t->wgl.CheckInvariants();
    t->mtree.CheckInvariants();
  } catch (const std::exception& ex) {
    r.Fail(std::string("key-tree invariants: ") + ex.what());
  }

  r.e2e["step_ms_p10"] = Percentile(epoch_ms, 10);
  r.detail["ops_per_s"] = static_cast<double>(r.steps) * 4 * kBatch / r.measured_s;
  r.Describe("rekey_ms", epoch_ms, 90);
  if (o.traced) {
    const double n = std::max(1.0, static_cast<double>(r.steps));
    auto& L = r.layers;
    L["mtree.build_s"] = setup_tracer.seconds(Layer::kMtreeJoinLeave) +
                         setup_tracer.seconds(Layer::kMtreeRekey);
    L["mtree.rekey_ms_per_epoch"] = tracer.seconds(Layer::kMtreeRekey) / n * 1e3;
    L["mtree.encryptions_per_rekey"] = Median(mtree_encs);
    L["wgl.build_s"] = setup_tracer.seconds(Layer::kWglRekey);
    L["wgl.rekey_ms_per_epoch"] = tracer.seconds(Layer::kWglRekey) / n * 1e3;
    L["wgl.encryptions_per_rekey"] = Median(wgl_encs);
    L["wgl.marked_nodes_per_epoch"] =
        static_cast<double>(t->wgl.op_stats().rekey_marked_nodes) / n;
    r.spans = tracer;
  }
  return r;
}

}  // namespace perfbench
