// The Fig. 12 experiment: rekey cost (encryptions per rekey message) as a
// function of the number of joins J and leaves L in one rekey interval, for
//   (a) the modified key tree,
//   (b) the modified minus the original (WGL degree-4, batch) key tree,
//   (c) the modified key tree with the cluster rekeying heuristic minus the
//       original key tree.
//
// Workload (§4.2): 1024 users join (IDs assigned by the protocol over a
// GT-ITM topology); then, per (J,L) grid cell, J joins and L leaves are
// processed as one batch by each key-management scheme and the rekey costs
// recorded. Cells are independent (each starts from the same base group).
#pragma once

#include <vector>

#include "metrics/registry.h"
#include "protocols/group_session.h"
#include "topology/gtitm.h"

namespace tmesh {

struct RekeyCostConfig {
  std::uint64_t seed = 1;
  int initial_users = 1024;
  std::vector<int> grid = {0, 128, 256, 384, 512, 640, 768, 896, 1024};
  int runs = 3;
  int wgl_degree = 4;
  double join_window_s = 2048.0;
  // Replica pool width (ReplicaRunner semantics: <= 0 selects hardware
  // concurrency). Per-run RNGs are pre-forked from the master seed in run
  // order and cells merge in run order, so results are identical for any
  // value.
  int threads = 1;
  SessionConfig session;
  GtItmParams topology;
  // When non-null, per-run per-cell rekey costs are recorded into
  // "rekeycost.{modified,original,cluster}" histograms via replica-local
  // registries merged in run order (identical for every thread count).
  MetricsRegistry* metrics = nullptr;
};

struct RekeyCostCell {
  int joins = 0;
  int leaves = 0;
  double modified = 0.0;        // avg rekey cost, modified key tree
  double original = 0.0;        // avg rekey cost, original (WGL) key tree
  double cluster = 0.0;         // avg rekey cost with the cluster heuristic
};

// Returns one cell per (J, L) in grid x grid, averaged over `runs` runs.
std::vector<RekeyCostCell> RunRekeyCostExperiment(const RekeyCostConfig& cfg);

}  // namespace tmesh
