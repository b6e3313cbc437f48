// The Figs. 6-11 latency-figure driver, runnable on a replica pool.
//
// A latency figure is `runs` independent replicas of the §4.1 workload
// (RunLatencyExperiment) aggregated into three inverse-CDF tables (user
// stress / application-layer delay / RDP, T-mesh vs NICE) plus the headline
// RDP fractions the paper quotes. Replica `run` uses seed
// `seed + run * 1000003` — the exact seeds the original sequential bench
// loop used — and the tables merge replicas in run order, so the printed
// output is byte-identical for every thread count (tier1-tested by
// replica_runner_test).
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "protocols/latency_experiment.h"
#include "topology/network.h"

namespace tmesh {

enum class FigureTopology { kPlanetLab, kGtItm };

// The evaluation's two substrates with the benches' parameter conventions:
// PlanetLab uses `seed` directly; GT-ITM derives the attachment seed as
// seed * 31 + 1 so the same router graph hosts different placements.
std::unique_ptr<Network> MakeFigureNetwork(FigureTopology topo, int hosts,
                                           std::uint64_t seed);

struct LatencyFigureConfig {
  std::string title;
  FigureTopology topo = FigureTopology::kPlanetLab;
  int users = 226;
  bool data_path = false;  // false: rekey path from the key server
  int runs = 10;
  std::uint64_t seed = 1;
  // Replica pool width (ReplicaRunner semantics: <= 0 selects hardware
  // concurrency, 1 is the sequential path). Output does not depend on it.
  int threads = 1;
  SessionConfig session;
  // Per-replica progress notes on stderr ("run i/N done"); their ordering
  // across replicas is the only thread-count-dependent output.
  bool progress = false;
  // When non-null, every replica's "tmesh."/"sim." counters are recorded
  // into a replica-local registry and merged here in run-index order — the
  // same contract that makes the tables thread-count-independent, so the
  // aggregate is byte-identical for every --threads=N. The figure's text
  // output is byte-identical with or without a registry attached.
  MetricsRegistry* metrics = nullptr;
  // When non-null, replica 0's multicast session is traced here (only
  // replica 0, so the trace is deterministic across thread counts and the
  // tracer needs no synchronization).
  MessageTracer* tracer = nullptr;
};

// Runs the figure and prints it to `os`.
void PrintLatencyFigure(std::ostream& os, const LatencyFigureConfig& cfg);

}  // namespace tmesh
