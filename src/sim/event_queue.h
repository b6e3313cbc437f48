// Pooled event records and the calendar queue that orders them.
//
// The simulator's hot loop is schedule → pop-min → invoke, millions of times
// per run. This file provides the two pieces that make that loop cheap:
//
//  * EventNode / EventPool — intrusively linked event records with inline
//    (small-buffer) closure storage, recycled through an arena free list.
//    Scheduling an event whose closure fits kInlineClosureBytes performs no
//    heap allocation once the pool is warm; oversized closures fall back to
//    a boxed heap copy (correct, just slower).
//
//  * CalendarQueue — a calendar/bucket queue (R. Brown, CACM 1988) giving
//    O(1) expected push/pop over the bucket ring, with a binary min-heap
//    overflow for events beyond the current "year" (far-future events such
//    as the key server's next batch-rekey tick). The queue preserves the
//    simulator's exact ordering contract: events are popped in strictly
//    increasing (when, seq) order, so simultaneous events always run in
//    schedule order, bit-identically to a binary heap over the same keys.
//
//    In adaptive mode (Simulator::Options::adaptive_retune) the queue also
//    re-estimates its day width per epoch from a sliding (exponentially
//    decayed) histogram of observed inter-pop gaps — Brown's sampling idea,
//    made robust to bimodal workloads — instead of trusting only the
//    population snapshot a collapse/growth retune happens to see. The batch
//    rekey workload is why: between interval ticks the queue pops sparse
//    timers against a standing far-future population, so a snapshot-derived
//    width balloons to interval scale, and the next tick's burst of
//    deliveries then piles into one bucket whose sorted insert degenerates
//    quadratically. The gap histogram remembers the burst cadence across
//    the lull and keeps the days burst-sized. Adaptation can never change
//    what order events pop in — only how much the geometry costs.
//
// NodeHeap is the same (when, seq) discipline as a plain binary heap of
// pooled records; the Simulator exposes it as a reference queue so tests can
// cross-check the calendar queue against a structure with obvious ordering.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/sim_time.h"

namespace tmesh {
namespace simdetail {

// Inline closure capacity per event record. Sized so every closure on the
// T-mesh message path (delivery and retry continuations: a couple of
// pointers, a UserId, a Packet with a shared encryption snapshot, an owned
// candidate vector) fits without a heap allocation — including when the
// closure arrives pre-erased as a TransportClosure (transport/transport.h:
// ops pointer + its own 128-byte inline buffer), so the SimTransport seam
// stays allocation-free on the message path too.
inline constexpr std::size_t kInlineClosureBytes = 160;

struct ClosureOps {
  void (*invoke)(void* storage);
  void (*destroy)(void* storage);
};

struct EventNode {
  SimTime when = 0;
  std::uint64_t seq = 0;
  EventNode* next = nullptr;      // intrusive link: bucket list / free list
  const ClosureOps* ops = nullptr;
  alignas(std::max_align_t) std::byte storage[kInlineClosureBytes];

  void Invoke() { ops->invoke(storage); }
  void DestroyClosure() {
    ops->destroy(storage);
    ops = nullptr;
  }
};

template <class F>
struct InlineClosure {
  static void Invoke(void* s) { (*std::launder(reinterpret_cast<F*>(s)))(); }
  static void Destroy(void* s) { std::launder(reinterpret_cast<F*>(s))->~F(); }
  static constexpr ClosureOps kOps{&Invoke, &Destroy};
};

// Fallback for callables larger than the inline buffer: the buffer holds a
// single owning pointer to a heap copy.
template <class F>
struct BoxedClosure {
  static void Invoke(void* s) { (**std::launder(reinterpret_cast<F**>(s)))(); }
  static void Destroy(void* s) {
    delete *std::launder(reinterpret_cast<F**>(s));
  }
  static constexpr ClosureOps kOps{&Invoke, &Destroy};
};

template <class Fn>
void EmplaceClosure(EventNode& node, Fn&& fn) {
  using F = std::decay_t<Fn>;
  static_assert(std::is_invocable_r_v<void, F&>);
  if constexpr (sizeof(F) <= kInlineClosureBytes &&
                alignof(F) <= alignof(std::max_align_t)) {
    ::new (static_cast<void*>(node.storage)) F(std::forward<Fn>(fn));
    node.ops = &InlineClosure<F>::kOps;
  } else {
    ::new (static_cast<void*>(node.storage)) F*(new F(std::forward<Fn>(fn)));
    node.ops = &BoxedClosure<F>::kOps;
  }
}

// Arena of EventNodes: block-allocated, recycled through a free list. Nodes
// are stable in memory for the pool's lifetime; the pool never runs closure
// destructors (the queue owning the nodes does that).
class EventPool {
 public:
  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  EventNode* Allocate() {
    if (free_ != nullptr) {
      EventNode* n = free_;
      free_ = n->next;
      n->next = nullptr;
      return n;
    }
    if (brk_ == kBlockNodes) {
      blocks_.push_back(std::make_unique<EventNode[]>(kBlockNodes));
      brk_ = 0;
    }
    return &blocks_.back()[brk_++];
  }

  void Release(EventNode* n) {
    n->next = free_;
    free_ = n;
  }

 private:
  static constexpr std::size_t kBlockNodes = 256;
  std::vector<std::unique_ptr<EventNode[]>> blocks_;
  std::size_t brk_ = kBlockNodes;  // next unused node in blocks_.back()
  EventNode* free_ = nullptr;
};

inline bool NodeBefore(const EventNode* a, const EventNode* b) {
  if (a->when != b->when) return a->when < b->when;
  return a->seq < b->seq;
}

// Binary min-heap of pooled event records keyed by (when, seq). Used both
// as the calendar queue's far-future overflow and as the Simulator's
// reference discipline. Pointer elements mean pop needs no move-from-top
// tricks (the seed implementation's const_cast is structurally impossible).
class NodeHeap {
 public:
  bool Empty() const { return v_.empty(); }
  std::size_t Size() const { return v_.size(); }
  EventNode* Top() const { return v_.front(); }

  void Push(EventNode* n) {
    v_.push_back(n);
    std::push_heap(v_.begin(), v_.end(), After);
  }

  EventNode* Pop() {
    std::pop_heap(v_.begin(), v_.end(), After);
    EventNode* n = v_.back();
    v_.pop_back();
    return n;
  }

  // For teardown: every queued node, in no particular order.
  const std::vector<EventNode*>& Nodes() const { return v_; }

  // Forgets every node (the caller owns their closures/records).
  void Clear() { v_.clear(); }

 private:
  static bool After(const EventNode* a, const EventNode* b) {
    return NodeBefore(b, a);
  }
  std::vector<EventNode*> v_;
};

// Calendar queue with exact (when, seq) ordering.
//
// Geometry: `buckets_.size()` (a power of two) day-buckets of `width_`
// microseconds each; an event at time t lives in bucket (t / width_) mod
// nbuckets, in a list sorted by (when, seq). The cursor (day_, day_start_)
// tracks the day currently being drained and is always at or before the
// earliest queued event. Events at or beyond `horizon_` (one full "year"
// past the cursor) wait in the overflow heap and migrate into buckets as
// the cursor advances. Bucket count and width are retuned from the live
// event population whenever occupancy leaves the efficient band.
class CalendarQueue {
 public:
  CalendarQueue() {
    buckets_.assign(kMinBuckets, nullptr);
    tails_.assign(kMinBuckets, nullptr);
    SetDayFor(0);
  }
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  // One-time construction tuning, applied by the Simulator before any Push:
  // `adaptive` enables the per-epoch width re-estimation described in the
  // file header. It cannot affect the (when, seq) pop order — only the
  // geometry behind it.
  void Configure(bool adaptive) {
    TMESH_CHECK_MSG(count_ == 0, "Configure on a non-empty queue");
    adaptive_ = adaptive;
  }

  bool Empty() const { return count_ == 0; }
  std::size_t Size() const { return count_; }

  // Retune() invocations (occupancy-triggered and epoch adaptations) since
  // construction or Clear(). Observability only — never drives behaviour.
  std::uint64_t Retunes() const { return retunes_; }

  void Push(EventNode* n) {
    MaybeAdapt();
    ++count_;
    // Epoch push traffic counts only once the window has seen a pop: a fill
    // tail that precedes the window's first pop is not interleaved with it,
    // and it is the pop/push *interleaving* that makes a shrink profitable.
    // Without this, the pushes of a big pre-scheduled flood leak into the
    // first drain epoch and un-gate a redistribution of the whole backlog.
    if (pops_since_adapt_ > 0) ++pushes_since_adapt_;
    if (n->when < day_start_) {
      // Keep the cursor at or before the minimum: an event scheduled for
      // "now" after the cursor coasted past empty days must still pop first.
      SetDayFor(n->when);
      InsertBucket(n);
      return;
    }
    if (n->when >= horizon_) {
      overflow_.Push(n);
      return;
    }
    InsertBucket(n);
    // Grow on the *total* population: a flood of far-future events parks in
    // the overflow heap, and only a retune (which drains it) can re-derive a
    // geometry that holds the flood in buckets.
    if (count_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
      Retune();
    }
  }

  // Smallest (when, seq) event, or nullptr. May advance the day cursor and
  // migrate overflow events, but removes nothing; after a non-null return
  // the minimum is the head of the cursor's bucket.
  EventNode* PeekMin() {
    if (count_ == 0) return nullptr;
    if (calendar_count_ == 0) {
      // Everything is far-future: re-anchor the year at the overflow
      // minimum and pull the new year's events in.
      SetDayFor(overflow_.Top()->when);
      MigrateOverflow();
    }
    for (std::size_t steps = 0; steps < buckets_.size(); ++steps) {
      EventNode* head = buckets_[day_];
      if (head != nullptr && head->when < day_start_ + width_) return head;
      AdvanceDay();
    }
    // Sparse population relative to the year: find the minimum directly
    // (bucket lists are sorted, so it is one of the heads) and jump there.
    EventNode* best = nullptr;
    for (EventNode* head : buckets_) {
      if (head != nullptr && (best == nullptr || NodeBefore(head, best))) {
        best = head;
      }
    }
    TMESH_DCHECK(best != nullptr);
    // A cursor jump must not skip overflow events that became eligible
    // while the cursor lagged (possible after a backward cursor move shrank
    // the horizon): migrate anything that precedes the calendar minimum.
    while (!overflow_.Empty() && NodeBefore(overflow_.Top(), best)) {
      best = overflow_.Pop();
      InsertBucket(best);
    }
    SetDayFor(best->when);
    MigrateOverflow();
    // A year-scale cursor jump is as much an epoch boundary as a rollover.
    if (adaptive_) adapt_pending_ = true;
    if (++direct_searches_ >= kDirectSearchLimit) {
      // The spread outgrew the year repeatedly; widen the days so the
      // normal scan works again.
      Retune();
    }
    return buckets_[day_];
  }

  EventNode* PopMin() {
    MaybeAdapt();
    EventNode* n = PeekMin();
    if (n == nullptr) return nullptr;
    TMESH_DCHECK(n == buckets_[day_]);
    buckets_[day_] = n->next;
    if (n->next == nullptr) tails_[day_] = nullptr;
    n->next = nullptr;
    --calendar_count_;
    --count_;
    // Sample before any shrink retune below, so the retune sees the
    // freshest gap window.
    if (adaptive_) RecordPopGap(n->when);
    // Shrink on the *total* population, matching how Retune sizes the ring:
    // triggering on the calendar count alone thrashes when most events sit
    // in the overflow heap (a small-width geometry under a far-future
    // standing population) — each retune re-derives the same big ring from
    // the total, re-parks the far events, and immediately re-triggers.
    if (count_ * 8 < buckets_.size() && buckets_.size() > kMinBuckets) {
      Retune();
    }
    return n;
  }

  // Forgets every queued node (the caller owns their closures/records) and
  // restores the pristine geometry, so a cleared queue is indistinguishable
  // from a freshly constructed one.
  void Clear() {
    buckets_.assign(kMinBuckets, nullptr);
    tails_.assign(kMinBuckets, nullptr);
    overflow_.Clear();
    width_ = kBaseWidth;
    count_ = 0;
    calendar_count_ = 0;
    direct_searches_ = 0;
    gap_hist_.fill(0);
    gap_samples_ = 0;
    recent_est_.fill(0);
    recent_est_head_ = 0;
    have_last_pop_ = false;
    pops_since_adapt_ = 0;
    pushes_since_adapt_ = 0;
    day_steps_ = 0;
    adapt_pending_ = false;
    retunes_ = 0;
    SetDayFor(0);
  }

  // For teardown: appends every queued node to `out` in no particular order.
  void CollectAll(std::vector<EventNode*>& out) const {
    for (EventNode* head : buckets_) {
      for (EventNode* n = head; n != nullptr; n = n->next) out.push_back(n);
    }
    const auto& o = overflow_.Nodes();
    out.insert(out.end(), o.begin(), o.end());
  }

 private:
  static constexpr std::size_t kMinBuckets = 32;
  static constexpr SimTime kBaseWidth = 64;  // initial/Clear() day width
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  static constexpr int kDirectSearchLimit = 8;
  // Adaptive-mode tuning. Gap samples live in a log2 histogram that is
  // halved at each epoch, so the estimator's memory spans a couple of
  // epochs of pops — long enough that a burst's gap samples survive a full
  // inter-burst lull of sparse timer pops, which would scroll any
  // fixed-length sample window into uselessness. An epoch is forced every
  // kEpochPops pops so tight clumps (which never roll the year over) still
  // adapt.
  static constexpr std::size_t kGapHistBits = 40;
  static constexpr std::uint64_t kMinGapSamples = 32;
  static constexpr std::size_t kEpochPops = 1024;
  static constexpr std::size_t kRecentEstimates = 3;

  void SetDayFor(SimTime t) {
    day_start_ = (t / width_) * width_;
    day_ = static_cast<std::size_t>(day_start_ / width_) & (buckets_.size() - 1);
    horizon_ = day_start_ + width_ * static_cast<SimTime>(buckets_.size());
  }

  void AdvanceDay() {
    day_ = (day_ + 1) & (buckets_.size() - 1);
    day_start_ += width_;
    horizon_ += width_;
    // A full trip around the ring is a year rollover — an epoch boundary
    // for the width estimator. The adaptation itself is deferred to the
    // next Push/PopMin entry: never resize the ring mid-scan.
    if (adaptive_ && ++day_steps_ >= buckets_.size()) {
      day_steps_ = 0;
      adapt_pending_ = true;
    }
    MigrateOverflow();
  }

  void MigrateOverflow() {
    while (!overflow_.Empty() && overflow_.Top()->when < horizon_) {
      InsertBucket(overflow_.Pop());
    }
  }

  void InsertBucket(EventNode* n) {
    ++calendar_count_;
    std::size_t b =
        static_cast<std::size_t>(n->when / width_) & (buckets_.size() - 1);
    EventNode* tail = tails_[b];
    if (tail == nullptr) {
      n->next = nullptr;
      buckets_[b] = tails_[b] = n;
      return;
    }
    if (NodeBefore(tail, n)) {  // FIFO fast path: same-time bursts append
      n->next = nullptr;
      tail->next = n;
      tails_[b] = n;
      return;
    }
    EventNode** p = &buckets_[b];
    while (NodeBefore(*p, n)) p = &(*p)->next;  // stops at or before tail
    n->next = *p;
    *p = n;
  }

  static std::size_t NextPow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  // Per-pop gap sampling for the adaptive width estimator: each inter-pop
  // gap lands in a log2-bucketed histogram, plus the pop counter that paces
  // epochs.
  void RecordPopGap(SimTime when) {
    if (have_last_pop_) {
      const SimTime gap = when - last_pop_when_;
      std::size_t b = 0;
      while ((SimTime{1} << b) < gap && b + 1 < kGapHistBits) ++b;
      ++gap_hist_[b];
      ++gap_samples_;
    }
    last_pop_when_ = when;
    have_last_pop_ = true;
    if (++pops_since_adapt_ >= kEpochPops) adapt_pending_ = true;
  }

  // Width rule over the decayed gap histogram: size days at ~1.5x the
  // 25th-percentile gap. The low percentile deliberately biases toward the
  // *dense* phase of a bimodal workload (rekey bursts interleaved with
  // sparse timer pops): an oversized day degenerates into one quadratic
  // sorted-insert chain at the next burst, while an undersized day only
  // costs a linear walk over empty buckets, so when in doubt, size for the
  // bursts. When the quartile gap is below one tick the days collapse to
  // width 1 — single-instant buckets, where every insert is a pure FIFO
  // append (same when, rising seq) and the sorted chain walk disappears
  // entirely. Returns 0 when the histogram holds too few samples to trust.
  SimTime EstimatedWidth() const {
    if (gap_samples_ < kMinGapSamples) return 0;
    const std::uint64_t quartile = (gap_samples_ + 3) / 4;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kGapHistBits; ++b) {
      cum += gap_hist_[b];
      if (cum >= quartile) {
        return std::max<SimTime>(1, 3 * (SimTime{1} << b) / 2);
      }
    }
    return 0;
  }

  // Epoch decay: halve every histogram bucket, so the estimate tracks a
  // sliding (exponentially weighted) window of the last few epochs.
  void DecayGapHist() {
    gap_samples_ = 0;
    for (std::uint32_t& c : gap_hist_) {
      c >>= 1;
      gap_samples_ += c;
    }
  }

  // Deferred epoch adaptation, run at the next Push/PopMin entry after an
  // epoch boundary (kEpochPops pops, a year rollover, or a cursor jump).
  // Only a >= 2x drift between the sampled estimate and the current width
  // pays for a redistribution, so a well-tuned queue re-checks for the cost
  // of computing one mean.
  void MaybeAdapt() {
    if (!adapt_pending_) return;
    adapt_pending_ = false;
    pops_since_adapt_ = 0;
    // A shrink pays off only through cheaper *inserts*: redistributing the
    // calendar under a narrower width does nothing for a drain-only phase
    // (pops without pushes, e.g. working through a pre-scheduled flood),
    // where it would cost a full O(n) redistribution for zero benefit. So
    // the shrink trigger requires the epoch to have carried real push
    // traffic. Growth is not gated: it helps the pop side too (fewer
    // empty-bucket steps per ring walk).
    const bool pushes_active = pushes_since_adapt_ * 4 >= kEpochPops;
    pushes_since_adapt_ = 0;
    const SimTime est = EstimatedWidth();
    DecayGapHist();
    if (est == 0) return;
    // Smooth with a min over the last few epoch estimates: an epoch that
    // closes mid-lull sees only sparse timer gaps, and acting on it alone
    // would balloon the days right before the next burst. The min keeps
    // the burst-scale estimate alive across a whole interval of epochs,
    // and biases small for the same cost-asymmetry reason as the
    // percentile above.
    recent_est_[recent_est_head_] = est;
    recent_est_head_ = (recent_est_head_ + 1) % kRecentEstimates;
    SimTime smoothed = est;
    for (SimTime e : recent_est_) {
      if (e > 0 && e < smoothed) smoothed = e;
    }
    // Asymmetric hysteresis: shrink on a 2x drift, grow only on 4x. The
    // log2 histogram quantizes the estimate to power-of-two steps, so a
    // gap distribution near a bucket boundary jitters its estimate 2x
    // epoch to epoch; a symmetric 2x trigger would turn that jitter into
    // a full redistribution every epoch. Growth gets the wide band
    // because oversizing is the expensive mistake (quadratic chains at
    // the next dense phase) while undersizing only costs linear ring
    // walks — the same cost asymmetry as the percentile choice. Ratchet
    // analysis: after a shrink to the 3-epoch min, growing back requires
    // a sustained 4x density drop, so boundary jitter cannot oscillate
    // the geometry.
    if (smoothed >= 4 * width_ || (pushes_active && 2 * smoothed <= width_)) {
      Retune(smoothed, /*calendar_only=*/true);
    }
  }

  // Re-derive bucket count and width, then redistribute. O(n log n),
  // amortized across the occupancy change (or epoch) that triggered it.
  // Width comes from `forced_width` when given (the epoch estimator), else
  // from the gap histogram when adaptive sampling has one (a population
  // snapshot taken between bursts would balloon the days; the histogram
  // remembers the burst cadence), else from the live population.
  //
  // `calendar_only` re-buckets just the in-calendar nodes under the new
  // width and keeps the ring size: epoch adaptations fire every few
  // thousand pops, and draining a large far-future standing population out
  // of the overflow heap and straight back into it each time is the one
  // cost that would make adaptation more expensive than the mis-tuned
  // geometry it repairs.
  void Retune(SimTime forced_width = 0, bool calendar_only = false) {
    ++retunes_;
    direct_searches_ = 0;
    adapt_pending_ = false;  // this retune is the epoch's adaptation
    pops_since_adapt_ = 0;
    pushes_since_adapt_ = 0;
    std::vector<EventNode*> nodes;
    nodes.reserve(calendar_only ? calendar_count_ : count_);
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      for (EventNode* n = buckets_[b]; n != nullptr;) {
        EventNode* next = n->next;
        nodes.push_back(n);
        n = next;
      }
      buckets_[b] = nullptr;
      tails_[b] = nullptr;
    }
    calendar_count_ = 0;
    if (!calendar_only) {
      while (!overflow_.Empty()) nodes.push_back(overflow_.Pop());
    }

    if (nodes.empty()) {
      if (!calendar_only) {
        buckets_.assign(kMinBuckets, nullptr);
        tails_.assign(kMinBuckets, nullptr);
      }
      if (forced_width > 0) width_ = forced_width;
      SetDayFor(day_start_);
      MigrateOverflow();
      return;
    }
    // Globally sorted reinsertion means every InsertBucket below hits the
    // O(1) tail-append fast path.
    std::sort(nodes.begin(), nodes.end(), NodeBefore);
    const SimTime lo = nodes.front()->when;
    const SimTime hi = nodes.back()->when;
    const auto n = static_cast<SimTime>(nodes.size());
    SimTime width = forced_width;
    if (width == 0 && adaptive_) width = EstimatedWidth();
    // Without a gap-histogram estimate: width ~ 3x the mean inter-event gap
    // of the *near half* of the population (median-based, so one far-future
    // outlier — the key server's next batch-rekey tick — cannot stretch the
    // days until every near-term event piles into a handful of buckets).
    // Far events the resulting year misses just go back to the overflow
    // heap below. If the near half sits at one instant (a synchronized
    // burst), fall back to the mean gap over the full span.
    if (width == 0 && nodes.size() >= 2 && hi > lo) {
      const SimTime half_span = nodes[nodes.size() / 2]->when - lo;
      width = half_span > 0 ? 3 * 2 * half_span / n : 3 * (hi - lo) / n;
    }
    if (width > 0) width_ = std::clamp<SimTime>(width, 1, hi - lo + 1);
    if (!calendar_only) {
      std::size_t nb =
          NextPow2(std::clamp(nodes.size(), kMinBuckets, kMaxBuckets));
      if (nb != buckets_.size()) {
        buckets_.assign(nb, nullptr);
        tails_.assign(nb, nullptr);
      }
    }
    SetDayFor(lo);
    for (EventNode* n2 : nodes) {
      if (n2->when >= horizon_) {
        overflow_.Push(n2);
      } else {
        InsertBucket(n2);
      }
    }
    // A width change moves the horizon; pull in any overflow events the new
    // (wider) year now covers so the "overflow is beyond the horizon"
    // invariant keeps holding.
    MigrateOverflow();
  }

  std::vector<EventNode*> buckets_;  // heads of (when, seq)-sorted lists
  std::vector<EventNode*> tails_;    // last node per bucket (FIFO appends)
  NodeHeap overflow_;                // events at/beyond horizon_
  SimTime width_ = kBaseWidth;       // microseconds per day; retuned
  SimTime day_start_ = 0;            // lower bound of the cursor's day
  SimTime horizon_ = 0;              // day_start_ + width_ * nbuckets
  std::size_t day_ = 0;              // cursor bucket index
  std::size_t count_ = 0;            // total queued (buckets + overflow)
  std::size_t calendar_count_ = 0;   // queued in buckets
  int direct_searches_ = 0;          // sparse-population fallbacks since tune
  std::uint64_t retunes_ = 0;        // Retune() calls since Clear()

  // Adaptive width estimation (inert unless adaptive_ is set).
  bool adaptive_ = false;
  std::array<std::uint32_t, kGapHistBits> gap_hist_{};  // log2 inter-pop gaps
  std::uint64_t gap_samples_ = 0;    // sum of gap_hist_ (decays with it)
  std::array<SimTime, kRecentEstimates> recent_est_{};  // last epoch widths
  std::size_t recent_est_head_ = 0;
  SimTime last_pop_when_ = 0;
  bool have_last_pop_ = false;
  std::size_t pops_since_adapt_ = 0;
  std::size_t pushes_since_adapt_ = 0;
  std::size_t day_steps_ = 0;        // AdvanceDay calls since last rollover
  bool adapt_pending_ = false;       // epoch boundary seen; adapt on entry
};

}  // namespace simdetail
}  // namespace tmesh
