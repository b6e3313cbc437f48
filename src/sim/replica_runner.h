// Data-parallel execution of independent simulation replicas with a
// deterministic reduction.
//
// Every evaluation figure averages `--runs` fully independent replicas:
// each replica gets a derived seed, builds its own topology/session, and
// contributes one row of samples to the aggregate metric tables. Nothing is
// shared between replicas but the config, so — now that the Simulator owns
// all of its state (no globals) — replicas can run on a fixed-size thread
// pool. The contract that makes this safe to offer everywhere:
//
//  * Seeds are derived from the replica index exactly as the sequential
//    loops derive them (the runner never touches seeds; the body computes
//    its seed from Replica::index), so replica i computes the same result
//    no matter which worker runs it or in which order.
//  * Each worker owns one Simulator for its whole lifetime and calls
//    Reset() on it before every replica, so the body sees a
//    freshly-constructed simulator (clock 0, empty queue) while the event
//    pool's arenas stay warm across replicas.
//  * Results are merged by a caller-supplied merge callback invoked in
//    strictly increasing replica order, after which aggregate output is
//    byte-identical to the sequential loop regardless of thread count.
//    (With threads() == 1 the runner degenerates to exactly the old
//    sequential loop: body and merge alternate inline on the calling
//    thread, no worker threads are spawned.)
//
// LegacySimulator deliberately stays out of this: it is the frozen
// golden-ordering baseline, single-threaded by design.
#pragma once

#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/simulator.h"

namespace tmesh {

class ReplicaRunner {
 public:
  // threads <= 0 selects HardwareThreads(). threads == 1 is the sequential
  // path (no worker threads, streaming merge).
  explicit ReplicaRunner(int threads = 0);

  int threads() const { return threads_; }

  // max(1, std::thread::hardware_concurrency()).
  static int HardwareThreads();

  // What the body sees for one replica.
  struct Replica {
    int index;       // replica index in [0, runs)
    int worker;      // worker slot executing this replica
    Simulator& sim;  // worker-owned; Reset() before every replica
  };

  // Runs body(replica) for every index in [0, runs) across the pool, then
  // calls merge(index, result) in strictly increasing index order. The body
  // must be safe to call concurrently from different workers (each call
  // touches only its own replica's state); merge always runs on the calling
  // thread and never concurrently. Replica results are buffered until every
  // earlier replica has merged, so peak memory is O(runs) results — metric
  // vectors, in practice.
  template <class Body, class Merge>
  void Run(int runs, Body&& body, Merge&& merge) const {
    using T = std::decay_t<std::invoke_result_t<Body&, Replica&>>;
    static_assert(!std::is_void_v<T>,
                  "the replica body must return its result");
    if (runs <= 0) return;
    if (threads_ == 1 || runs == 1) {
      Simulator sim;
      for (int i = 0; i < runs; ++i) {
        sim.Reset();
        Replica r{i, 0, sim};
        merge(i, body(r));
      }
      return;
    }
    std::vector<std::optional<T>> slots(static_cast<std::size_t>(runs));
    Dispatch(runs, [&](Replica& r) {
      slots[static_cast<std::size_t>(r.index)].emplace(body(r));
    });
    for (int i = 0; i < runs; ++i) {
      auto& slot = slots[static_cast<std::size_t>(i)];
      merge(i, std::move(*slot));
      slot.reset();
    }
  }

 private:
  // Spawns min(threads_, runs) workers, each pulling replica indices from a
  // shared counter and running `task` with its worker-owned Simulator. The
  // first exception thrown by any replica stops the pool (in-flight
  // replicas finish; unclaimed ones never start) and is rethrown here after
  // all workers have joined.
  void Dispatch(int runs, const std::function<void(Replica&)>& task) const;

  int threads_;
};

}  // namespace tmesh
