// The four workloads and the helpers they share.
#pragma once

#include "core/directory.h"
#include "harness.h"
#include "metrics/registry.h"

namespace perfbench {

RunResult RunFig08(const RunOptions& o);
RunResult RunOnline(const RunOptions& o);
RunResult RunKeytree(const RunOptions& o);
RunResult RunUdp(const RunOptions& o);

// True while step `i` should still run: a fixed count when the options name
// one (traced replays), else until `o.seconds` have passed since `start`.
inline bool StepsLeft(const RunOptions& o, long i, double start) {
  if (o.steps > 0) return i < o.steps;
  return NowSeconds() - start < o.seconds;
}

// Directory admission work, the same meter the churn fuzzer's complexity
// allowance reads: members inspected or written, windowed RTT probes and
// server refill scans.
inline std::int64_t AdmissionWork(const tmesh::Directory::OpStats& s) {
  return s.holders_examined + s.holders_updated + s.candidates_probed +
         s.server_candidates;
}

// The T-mesh / simulator layer metrics every multicasting workload reports:
// span totals plus the "tmesh." registry counters, normalised per multicast
// (`multicasts`) or per rekey multicast (`rekeys`).
inline void FillTmeshLayers(RunResult& r, const Tracer& t,
                            tmesh::MetricsRegistry& reg, std::uint64_t events,
                            double multicasts, double rekeys) {
  const double m = multicasts > 0.0 ? multicasts : 1.0;
  auto counter = [&](const char* name) {
    return static_cast<double>(reg.GetCounter(name)->value());
  };
  auto& L = r.layers;
  L["tmesh.begin_us"] = t.seconds(Layer::kTmeshBegin) / m * 1e6;
  L["sim.drain_ms_per_multicast"] = t.seconds(Layer::kSimDrain) / m * 1e3;
  L["sim.events_per_multicast"] = static_cast<double>(events) / m;
  L["sim.ns_per_event"] =
      events > 0 ? t.seconds(Layer::kSimDrain) / static_cast<double>(events) * 1e9
                 : 0.0;
  L["tmesh.sends_per_multicast"] = counter("tmesh.messages_sent") / m;
  L["tmesh.retries_per_multicast"] = counter("tmesh.retries") / m;
  L["tmesh.splits_per_rekey"] =
      rekeys > 0.0 ? counter("tmesh.split_messages") / rekeys : 0.0;
}

}  // namespace perfbench
