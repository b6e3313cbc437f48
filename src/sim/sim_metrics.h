// Bridges Simulator::Stats into a MetricsRegistry. Kept out of simulator.h
// so the simulator core stays free of the metrics dependency; experiments
// include this where they already depend on both.
#pragma once

#include "metrics/registry.h"
#include "sim/simulator.h"

namespace tmesh {

// Adds the simulator's lifetime counters into `reg` under "sim.". Call once
// per run (after the drain); counters add, so several simulators (or the
// same one across Reset()s, exported each time) accumulate.
inline void ExportSimMetrics(const Simulator& sim, MetricsRegistry& reg) {
  const Simulator::Stats st = sim.stats();
  reg.GetCounter("sim.events_scheduled")
      ->Add(static_cast<std::int64_t>(st.events_scheduled));
  reg.GetCounter("sim.events_run")
      ->Add(static_cast<std::int64_t>(st.events_run));
  reg.GetCounter("sim.calendar_retunes")
      ->Add(static_cast<std::int64_t>(st.calendar_retunes));
}

}  // namespace tmesh
