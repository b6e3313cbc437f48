// Discrete event-driven simulator core.
//
// The paper evaluates everything on a custom event-driven simulator that
// models "the sending and the reception of a message as events" (§4). This
// module provides that core: a virtual clock, an event queue, and a run
// loop.
//
// Ordering contract (the determinism guarantee every experiment relies on):
// events run in strictly increasing (time, sequence-number) order, where the
// sequence number is assigned at Schedule* time. Two events scheduled for
// the same instant therefore always run in the order they were scheduled,
// on every platform, for every queue discipline. simulator_determinism_test
// pins this contract against the seed implementation's golden ordering.
//
// Throughput: scheduling goes through an arena pool of intrusively linked
// event records with small-buffer closure storage (sim/event_queue.h), so
// the message path performs no per-event heap allocation, and the default
// queue is a calendar queue with O(1) expected push/pop (a binary-heap
// discipline over the same records is available for cross-checking). The
// seed implementation (binary heap of std::function) survives as
// LegacySimulator for the golden-ordering fixture and the scheduler
// microbench baseline (bench/micro_sim_core.cc).
//
// Protocol modules schedule closures; there is no global node registry —
// each protocol owns its endpoints and captures them in its events. This
// keeps the simulator reusable for T-mesh, NICE, and the workload drivers.
//
// Execution driver: Run() drains the world and RunUntil() drains a time
// prefix, but the paper's key server is an *online* component — it batches
// joins/leaves and rekeys on a periodic tick — so callers also get budgeted
// execution: Step() runs exactly one event, and RunFor(EventBudget) runs
// until an event-count cap and/or virtual-time deadline binds, returning a
// RunStatus that says why it stopped and when the next event is due. All
// four drivers share one RunOne() path, so slicing a run into arbitrary
// RunFor chunks is bit-identical to a monolithic Run() by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace tmesh {

// Which structure orders the pooled event records. kCalendar is the fast
// default; kBinaryHeap is the obviously correct reference the determinism
// tests (and sceptical benchmarks) compare against. Both obey the exact
// (time, seq) contract, so simulations are bit-identical across disciplines.
enum class QueueDiscipline { kCalendar, kBinaryHeap };

// Why a RunFor slice stopped.
enum class Exhausted {
  kDrained,   // queue empty: nothing left to run
  kEvents,    // the max_events cap bound first
  kDeadline,  // the head event lies beyond the deadline
};

// Budget for one RunFor slice. Both limits optional; when both are set the
// event cap is checked first, so a status of kDeadline guarantees the time
// limit (not the count) is what stopped the slice.
struct EventBudget {
  std::size_t max_events = 0;  // 0: no event cap
  SimTime deadline = kNoTime;  // kNoTime: no deadline; else run when <= deadline

  static EventBudget Events(std::size_t n) { return {n, kNoTime}; }
  static EventBudget Until(SimTime d) { return {0, d}; }
};

struct RunStatus {
  std::size_t events_run = 0;
  SimTime next_event_time = kNoTime;  // head event's time, kNoTime if drained
  Exhausted exhausted_reason = Exhausted::kDrained;
};

class Simulator {
 public:
  // Construction-time tuning. The discipline selects the ordering structure;
  // adaptive_retune configures the calendar queue's geometry (ignored by
  // kBinaryHeap) and cannot affect event order, only its cost.
  struct Options {
    QueueDiscipline discipline = QueueDiscipline::kCalendar;
    // Re-estimate the day width per epoch from observed inter-pop gaps
    // (event_queue.h header). On by default — it can only change geometry
    // cost, never event order, and the batch-rekey workloads this repo runs
    // are exactly the bursty shape it exists for. Disable to pin the static
    // collapse/growth-only retuning (the pre-adaptive behaviour).
    bool adaptive_retune = true;
  };

  Simulator() : Simulator(Options{}) {}
  explicit Simulator(const Options& opts) : discipline_(opts.discipline) {
    calendar_.Configure(opts.adaptive_retune);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  ~Simulator() {
    // Destroy the closures of any never-run events (they may own resources
    // through captured smart pointers). The pool frees the records.
    DestroyPending();
  }

  // Returns the simulator to its freshly-constructed observable state —
  // pending events destroyed, clock at 0, sequence counter at 0, queues
  // back to pristine geometry — while keeping the event pool's arenas
  // allocated. A Reset() simulator runs any workload bit-identically to a
  // brand-new one (the ordering contract depends only on (time, seq), never
  // on queue geometry or pool layout); reusing the arenas is what lets a
  // ReplicaRunner worker execute thousands of replicas without re-warming
  // the allocator each time.
  void Reset() {
    DestroyPending();
    calendar_.Clear();
    heap_.Clear();
    now_ = 0;
    next_seq_ = 0;
    events_run_ = 0;
  }

  SimTime Now() const { return now_; }

  // Lifetime scheduler counters since construction or Reset(). Kept as a
  // plain struct (not a MetricsRegistry dependency) so the sim layer stays
  // standalone; experiments export these into their replica registries.
  // events_scheduled counts every Schedule* call (== queue pushes),
  // events_run every event popped and invoked, calendar_retunes every
  // calendar-geometry rebuild (0 under kBinaryHeap).
  struct Stats {
    std::uint64_t events_scheduled = 0;
    std::uint64_t events_run = 0;
    std::uint64_t calendar_retunes = 0;
  };
  Stats stats() const { return {next_seq_, events_run_, calendar_.Retunes()}; }

  // Schedules `fn` to run at Now() + delay. delay must be non-negative.
  template <class Fn>
  void ScheduleIn(SimTime delay, Fn&& fn) {
    TMESH_CHECK(delay >= 0);
    ScheduleAt(now_ + delay, std::forward<Fn>(fn));
  }

  // Schedules `fn` at an absolute time >= Now(). The closure is constructed
  // in place in a pooled event record; see event_queue.h for the inline
  // capacity.
  template <class Fn>
  void ScheduleAt(SimTime when, Fn&& fn) {
    TMESH_CHECK_MSG(when >= now_, "cannot schedule into the past");
    simdetail::EventNode* n = pool_.Allocate();
    n->when = when;
    n->seq = next_seq_++;
    simdetail::EmplaceClosure(*n, std::forward<Fn>(fn));
    if (discipline_ == QueueDiscipline::kCalendar) {
      calendar_.Push(n);
    } else {
      heap_.Push(n);
    }
  }

  // Runs exactly one event (the (time, seq) minimum), advancing the clock
  // to its timestamp. Returns false — and runs nothing — on an empty queue.
  bool Step() { return RunOne(); }

  // Runs events until the budget binds or the queue drains. The event cap
  // is checked before the deadline, so exhausted_reason reports the binding
  // constraint deterministically. When the slice stops for any reason other
  // than the event cap, the clock advances to the deadline (if one was set
  // and lies ahead) — this is what makes a deadline-sliced loop land on the
  // same final Now() as one monolithic RunUntil(). An event-cap stop leaves
  // the clock at the last event run, so resuming mid-slice never skews time.
  RunStatus RunFor(const EventBudget& budget) {
    RunStatus status;
    for (;;) {
      if (budget.max_events != 0 && status.events_run >= budget.max_events) {
        status.exhausted_reason = Exhausted::kEvents;
        break;
      }
      simdetail::EventNode* head = PeekMin();
      if (head == nullptr) {
        status.exhausted_reason = Exhausted::kDrained;
        break;
      }
      if (budget.deadline != kNoTime && head->when > budget.deadline) {
        status.exhausted_reason = Exhausted::kDeadline;
        break;
      }
      RunOne();
      ++status.events_run;
    }
    if (status.exhausted_reason != Exhausted::kEvents &&
        budget.deadline != kNoTime && now_ < budget.deadline) {
      now_ = budget.deadline;
    }
    if (simdetail::EventNode* head = PeekMin()) {
      status.next_event_time = head->when;
    }
    return status;
  }

  // Runs events until the queue drains. Returns the number of events run.
  std::size_t Run() { return RunFor(EventBudget{}).events_run; }

  // Runs events with time <= deadline; leaves later events queued and
  // advances the clock to the deadline.
  std::size_t RunUntil(SimTime deadline) {
    TMESH_CHECK(deadline >= 0);  // kNoTime would mean "no deadline" to RunFor
    return RunFor(EventBudget::Until(deadline)).events_run;
  }

  bool Empty() const { return Pending() == 0; }
  std::size_t Pending() const {
    return discipline_ == QueueDiscipline::kCalendar ? calendar_.Size()
                                                     : heap_.Size();
  }

  QueueDiscipline discipline() const { return discipline_; }

 private:
  // Destroys the closures of all never-run events and recycles their
  // records. Leaves the queue structures' bookkeeping untouched (the caller
  // clears or destroys them next).
  void DestroyPending() {
    std::vector<simdetail::EventNode*> pending;
    calendar_.CollectAll(pending);
    const auto& h = heap_.Nodes();
    pending.insert(pending.end(), h.begin(), h.end());
    for (simdetail::EventNode* n : pending) {
      n->DestroyClosure();
      pool_.Release(n);
    }
  }

  simdetail::EventNode* PeekMin() {
    if (discipline_ == QueueDiscipline::kCalendar) return calendar_.PeekMin();
    return heap_.Empty() ? nullptr : heap_.Top();
  }

  bool RunOne() {
    simdetail::EventNode* n;
    if (discipline_ == QueueDiscipline::kCalendar) {
      n = calendar_.PopMin();
      if (n == nullptr) return false;
    } else {
      if (heap_.Empty()) return false;
      n = heap_.Pop();
    }
    TMESH_DCHECK(n->when >= now_);
    now_ = n->when;
    ++events_run_;
    // The record is already unlinked, so re-entrant scheduling is safe; the
    // guard recycles it even if the closure throws (TMESH_CHECK).
    struct Recycle {
      simdetail::EventNode* n;
      simdetail::EventPool* pool;
      ~Recycle() {
        n->DestroyClosure();
        pool->Release(n);
      }
    } recycle{n, &pool_};
    n->Invoke();
    return true;
  }

  const QueueDiscipline discipline_ = QueueDiscipline::kCalendar;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;  // doubles as the events-scheduled count
  std::uint64_t events_run_ = 0;
  simdetail::EventPool pool_;
  simdetail::CalendarQueue calendar_;
  simdetail::NodeHeap heap_;  // used iff discipline_ == kBinaryHeap
};

// Chunked drivers for callers that want a --step knob without writing the
// loop themselves: step == 0 delegates to the monolithic call, step > 0
// slices the same work into event-capped RunFor chunks. Identical results
// either way (one RunOne path underneath); the churn fuzzer's --step and
// its sliced-replay test use these to *prove* that, not merely assume it.
inline std::size_t DrainSliced(Simulator& sim, std::size_t step) {
  if (step == 0) return sim.Run();
  std::size_t total = 0;
  for (;;) {
    RunStatus s = sim.RunFor(EventBudget::Events(step));
    total += s.events_run;
    if (s.exhausted_reason != Exhausted::kEvents) return total;
  }
}

inline std::size_t RunUntilSliced(Simulator& sim, SimTime deadline,
                                  std::size_t step) {
  if (step == 0) return sim.RunUntil(deadline);
  TMESH_CHECK(deadline >= 0);
  std::size_t total = 0;
  for (;;) {
    RunStatus s = sim.RunFor(EventBudget{step, deadline});
    total += s.events_run;
    if (s.exhausted_reason != Exhausted::kEvents) return total;
  }
}

}  // namespace tmesh
