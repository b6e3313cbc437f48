// The latency experiments of §4.1 (Figs. 6-11) and §4.4 (Fig. 14).
//
// Workload: N users join at uniformly random times in a window (the order
// is what matters; T-mesh and NICE see the same order). After the joins, a
// single multicast session runs:
//   - rekey path: the key server is the sender (T-mesh FORWARD from the
//     server; in NICE the server unicasts to the tree root first);
//   - data path: a random user is the sender.
// Metrics per user: user stress (messages forwarded), application-layer
// delay, and relative delay penalty RDP = delay / one-way unicast delay
// from the sender.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/registry.h"
#include "metrics/trace.h"
#include "protocols/group_session.h"
#include "sim/simulator.h"
#include "topology/network.h"

namespace tmesh {

struct LatencySeries {
  std::vector<double> stress;
  std::vector<double> delay_ms;
  std::vector<double> rdp;
};

struct LatencyRunConfig {
  int users = 226;
  double join_window_s = 452.0;
  bool data_path = false;  // false: rekey path from the key server
  SessionConfig session;
  // When non-null, the run's TMesh counters ("tmesh.") and simulator
  // counters ("sim.") are recorded here. Pure observation: the printed
  // results are byte-identical with or without a registry attached.
  MetricsRegistry* metrics = nullptr;
  // When non-null, the run's multicast session records birth/forward/
  // delivery spans here (metrics/trace.h).
  MessageTracer* tracer = nullptr;
};

struct LatencyRunResult {
  LatencySeries tmesh;
  LatencySeries nice;  // empty when session.with_nice is false
};

// One simulation run: hosts 1..users join (host 0 is the key server); the
// session's group/NICE parameters come from cfg.session; `run_seed` drives
// the join times/order and the data sender choice. When `sim` is non-null
// the run uses it instead of a run-local Simulator — it must be idle in its
// freshly-constructed/Reset() state, and results are identical either way
// (ReplicaRunner workers pass their pooled Simulator here so the event
// arenas stay warm across replicas).
LatencyRunResult RunLatencyExperiment(const Network& net,
                                      const LatencyRunConfig& cfg,
                                      std::uint64_t run_seed,
                                      Simulator* sim = nullptr);

}  // namespace tmesh
