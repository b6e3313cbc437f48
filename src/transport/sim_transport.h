// SimTransport: the Transport interface over the discrete-event simulator.
//
// This adapter is the determinism-preserving half of the transport seam
// (DESIGN.md §3h). ScheduleIn/ScheduleAt delegate 1:1 to the simulator's
// Schedule* — same clock, same (time, seq) assignment order — so protocol
// code refactored onto Transport reproduces its pre-refactor event history
// byte-for-byte (pinned by transport_conformance_test's byte-identity suite
// and every existing determinism/differential golden). The cost of the seam
// on the message path is one virtual call plus one TransportClosure move
// per event; the simulator's event records were sized
// (sim/event_queue.h kInlineClosureBytes) so the moved closure still lands
// inline, keeping the path free of heap allocation.
//
// The datagram plane is provided by a SimFabric: a registry of endpoints
// over one simulator plus a delay model (the topology's one-way delays, or
// a fixed delay for tests). Send(to) schedules DispatchReceive at the
// destination after the model's delay. Protocol objects that only consume
// the timer/clock plane (TMesh, KeyServer, SilkGroup model their own
// messaging as timed closures) can use a fabric-less SimTransport, where
// Send is a checked error.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "transport/transport.h"

namespace tmesh {

class SimTransport;

// The simulated datagram plane: endpoints registered by host id, deliveries
// scheduled on the shared simulator after a modeled one-way delay.
// Endpoints must outlive any in-flight delivery (i.e. drain the simulator
// before destroying a registered SimTransport — the same lifetime rule the
// TMesh session handles follow).
class SimFabric {
 public:
  // Delays from the topology's one-way host latency.
  SimFabric(Simulator& sim, const Network& net) : sim_(sim), net_(&net) {}
  // Fixed one-way delay for every pair (conformance tests).
  SimFabric(Simulator& sim, SimTime fixed_delay)
      : sim_(sim), fixed_delay_(fixed_delay) {
    TMESH_CHECK(fixed_delay >= 0);
  }

  Simulator& simulator() { return sim_; }

  SimTime DelayFor(HostId from, HostId to) const {
    if (net_ != nullptr) return FromMillis(net_->OneWayDelayMs(from, to));
    return fixed_delay_;
  }

 private:
  friend class SimTransport;

  void Register(HostId host, SimTransport* endpoint) {
    const bool inserted = endpoints_.emplace(host, endpoint).second;
    TMESH_CHECK_MSG(inserted, "duplicate fabric endpoint for host");
  }
  void Unregister(HostId host) { endpoints_.erase(host); }

  void Deliver(HostId from, HostId to, std::vector<std::uint8_t> payload);

  Simulator& sim_;
  const Network* net_ = nullptr;
  SimTime fixed_delay_ = 0;
  std::unordered_map<HostId, SimTransport*> endpoints_;
};

class SimTransport final : public Transport {
 public:
  // Timer/clock plane only; Send is a checked error.
  explicit SimTransport(Simulator& sim, HostId host = 0)
      : sim_(sim), host_(host) {}
  // Full plane: registers this endpoint with the fabric.
  SimTransport(SimFabric& fabric, HostId host)
      : sim_(fabric.simulator()), host_(host), fabric_(&fabric) {
    fabric.Register(host, this);
  }
  ~SimTransport() override {
    if (fabric_ != nullptr) fabric_->Unregister(host_);
  }

  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  Simulator& simulator() { return sim_; }

  // --- Transport ----------------------------------------------------------
  using Transport::Send;  // keep the vector convenience overload visible
  SimTime Now() const override { return sim_.Now(); }
  HostId local_host() const override { return host_; }

  TimerId ScheduleTimer(SimTime delay, TransportClosure fn) override {
    TMESH_CHECK(delay >= 0);
    const TimerId id = ++last_timer_;
    live_timers_.insert(id);
    struct Fire {
      SimTransport* self;
      TimerId id;
      TransportClosure fn;
      void operator()() {
        if (self->live_timers_.erase(id) != 0) fn();
      }
    };
    sim_.ScheduleAt(sim_.Now() + delay, Fire{this, id, std::move(fn)});
    return id;
  }

  bool CancelTimer(TimerId id) override {
    return live_timers_.erase(id) != 0;
  }

  void Send(HostId to, const std::uint8_t* data, std::size_t size) override {
    TMESH_CHECK_MSG(fabric_ != nullptr,
                    "Send on a SimTransport without a SimFabric");
    fabric_->Deliver(host_, to, std::vector<std::uint8_t>(data, data + size));
  }

  void OnReceive(RecvHandler handler) override {
    handler_ = std::move(handler);
  }

 protected:
  void ScheduleClosureAt(SimTime when, TransportClosure fn) override {
    sim_.ScheduleAt(when, std::move(fn));
  }

 private:
  friend class SimFabric;

  void DispatchReceive(HostId from, const std::vector<std::uint8_t>& payload) {
    if (handler_) handler_(from, payload.data(), payload.size());
  }

  Simulator& sim_;
  const HostId host_;
  SimFabric* fabric_ = nullptr;
  RecvHandler handler_;
  TimerId last_timer_ = kNoTimer;
  std::unordered_set<TimerId> live_timers_;
};

inline void SimFabric::Deliver(HostId from, HostId to,
                               std::vector<std::uint8_t> payload) {
  auto it = endpoints_.find(to);
  // Unknown destination: the datagram is dropped, like UDP to a closed
  // port.
  if (it == endpoints_.end()) return;
  SimTransport* target = it->second;
  sim_.ScheduleIn(DelayFor(from, to),
                  [target, from, payload = std::move(payload)]() {
                    target->DispatchReceive(from, payload);
                  });
}

}  // namespace tmesh
