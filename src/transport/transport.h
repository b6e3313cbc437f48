// The transport substrate: one narrow runtime API under every protocol
// object (DESIGN.md §3h).
//
// TMesh, KeyServer, SilkGroup and the HA facade used to hard-bind
// `Simulator&`, which made the reproduction a simulator study by
// construction. This interface extracts the four things the protocol code
// actually consumes from its runtime — a clock, one-shot timers, a unicast
// datagram plane, and a local host identity — so the *same* protocol
// objects run over the discrete-event simulator (SimTransport,
// sim_transport.h) and as real processes over localhost UDP sockets
// (UdpTransport, udp_transport.h). The pattern follows DCT's syncps
// substrate: one transport abstraction under all distributors.
//
// Contract (pinned by tests/transport_conformance_test.cc against both
// implementations):
//
//  * Now() is a monotone microsecond clock starting at 0 (virtual time in
//    the simulator, monotonic wall time since construction for UDP). Time
//    never runs backwards, and every callback observes Now() >= the instant
//    it was scheduled for... minus nothing: a timer for T fires with
//    Now() >= T.
//  * ScheduleIn/ScheduleAt/ScheduleAtHost run a closure once, later.
//    Closures scheduled for the same instant fire in schedule order (FIFO
//    among ties, whichever of the three scheduled them) — the
//    simulator's (time, seq) determinism contract, honored by the UDP
//    timer queue as well. ScheduleAt(when < Now()) is a checked error under
//    the simulator (virtual time cannot re-enter the past; protocol code
//    always computes deadlines from Now() within one event, where the clock
//    does not advance) and fires as soon as possible under a wall clock,
//    where the clock may advance between computing a deadline and the
//    schedule call landing.
//  * ScheduleTimer/CancelTimer is the cancellable variant, deliberately
//    separate so the fire-and-forget message path pays no bookkeeping.
//    CancelTimer returns true iff the closure had not fired and will not.
//  * Send() queues one datagram to a host; OnReceive registers the single
//    receive handler. Delivery is at-most-once, unordered, unreliable —
//    UDP semantics, which the simulator models with its per-hop delay and
//    the protocols' own §2.3 loss recovery on top.
//
// Threading: the simulator implementation is single-threaded; UdpTransport
// invokes every closure and receive handler on one internal event-loop
// thread, so protocol objects stay single-threaded there too — the loop
// thread is "the simulator" of the wall-clock world.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/sim_time.h"
#include "topology/network.h"

namespace tmesh {

// A move-only type-erased `void()` with small-buffer storage, the currency
// of the virtual scheduling seam. Sized so every closure on the T-mesh
// message path fits inline; together with the simulator's event-record
// inline capacity (sim/event_queue.h) this keeps the SimTransport message
// path free of per-event heap allocation. Oversized callables fall back to
// one boxed heap copy.
class TransportClosure {
 public:
  static constexpr std::size_t kInlineBytes = 128;

  TransportClosure() = default;

  template <class Fn,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, TransportClosure>>>
  TransportClosure(Fn&& fn) {  // NOLINT(google-explicit-constructor)
    using F = std::decay_t<Fn>;
    static_assert(std::is_invocable_r_v<void, F&>);
    if constexpr (sizeof(F) <= kInlineBytes &&
                  alignof(F) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) F(std::forward<Fn>(fn));
      ops_ = &InlineOps<F>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) F*(new F(std::forward<Fn>(fn)));
      ops_ = &BoxedOps<F>::kOps;
    }
  }

  TransportClosure(TransportClosure&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  TransportClosure& operator=(TransportClosure&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  TransportClosure(const TransportClosure&) = delete;
  TransportClosure& operator=(const TransportClosure&) = delete;

  ~TransportClosure() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Invokes the callable (callable once per emplacement; the object stays
  // destructible afterwards, matching the event queue's invoke-then-destroy
  // lifecycle).
  void operator()() {
    TMESH_CHECK(ops_ != nullptr);
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to);  // move-construct + destroy from
    void (*destroy)(void* storage);
  };

  template <class F>
  struct InlineOps {
    static void Invoke(void* s) { (*std::launder(reinterpret_cast<F*>(s)))(); }
    static void Relocate(void* from, void* to) {
      F* src = std::launder(reinterpret_cast<F*>(from));
      ::new (to) F(std::move(*src));
      src->~F();
    }
    static void Destroy(void* s) {
      std::launder(reinterpret_cast<F*>(s))->~F();
    }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <class F>
  struct BoxedOps {
    static void Invoke(void* s) {
      (**std::launder(reinterpret_cast<F**>(s)))();
    }
    static void Relocate(void* from, void* to) {
      F** src = std::launder(reinterpret_cast<F**>(from));
      ::new (to) F*(*src);
    }
    static void Destroy(void* s) {
      delete *std::launder(reinterpret_cast<F**>(s));
    }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
};

// Identifies one cancellable timer within one Transport instance. Ids are
// never reused.
using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = 0;

class Transport {
 public:
  // The single datagram receive handler: (source host, payload bytes).
  // Payload framing is the caller's business — the protocol demo and soak
  // use the wire.cc format.
  using RecvHandler =
      std::function<void(HostId from, const std::uint8_t* data,
                         std::size_t size)>;

  virtual ~Transport() = default;

  // Microsecond clock, monotone, 0 at construction.
  virtual SimTime Now() const = 0;

  // The identity this endpoint sends from (and that peers' receive handlers
  // observe as `from`).
  virtual HostId local_host() const = 0;

  // Fire-and-forget one-shot scheduling. `fn` lands in the runtime's event
  // queue via one TransportClosure move — no std::function, and no heap
  // allocation for message-path-sized captures.
  template <class Fn>
  void ScheduleIn(SimTime delay, Fn&& fn) {
    TMESH_CHECK(delay >= 0);
    ScheduleClosureAt(Now() + delay, TransportClosure(std::forward<Fn>(fn)));
  }
  template <class Fn>
  void ScheduleAt(SimTime when, Fn&& fn) {
    ScheduleClosureAt(when, TransportClosure(std::forward<Fn>(fn)));
  }

  // ScheduleAt with a host tag: `affine` names the host whose state the
  // closure touches (the receiving member for a delivery, the sender for a
  // retransmit timer). Ordering is exactly ScheduleAt's (deadline, then
  // FIFO); the tag only lets a wrapper transport tell T-mesh hops apart
  // from other events (the default ScheduleClosureAtHost drops it).
  template <class Fn>
  void ScheduleAtHost(HostId affine, SimTime when, Fn&& fn) {
    ScheduleClosureAtHost(affine, when,
                          TransportClosure(std::forward<Fn>(fn)));
  }

  // Cancellable one-shot timer. Kept separate from Schedule* so the
  // fire-and-forget path carries no cancellation bookkeeping.
  virtual TimerId ScheduleTimer(SimTime delay, TransportClosure fn) = 0;
  // True iff the timer existed and had not fired; its closure is destroyed
  // without running.
  virtual bool CancelTimer(TimerId id) = 0;

  // Queues one unreliable datagram to `to` (self-send allowed and loops
  // back through the receive path).
  virtual void Send(HostId to, const std::uint8_t* data, std::size_t size) = 0;
  void Send(HostId to, const std::vector<std::uint8_t>& payload) {
    Send(to, payload.data(), payload.size());
  }

  // Registers the receive handler (replacing any previous one; empty
  // detaches). Invoked on the transport's event thread.
  virtual void OnReceive(RecvHandler handler) = 0;

 protected:
  // The one virtual hop under ScheduleIn/ScheduleAt.
  virtual void ScheduleClosureAt(SimTime when, TransportClosure fn) = 0;

  // The virtual hop under ScheduleAtHost. Default: ignore the host tag.
  virtual void ScheduleClosureAtHost(HostId affine, SimTime when,
                                     TransportClosure fn) {
    (void)affine;
    ScheduleClosureAt(when, std::move(fn));
  }
};

}  // namespace tmesh
