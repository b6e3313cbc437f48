// The seven rekey transport protocols of Table 2 and the Fig. 13 rekey
// bandwidth experiment.
//
//   P0   original key tree + NICE,        no splitting
//   P0'  original key tree + NICE,        (idealized) splitting
//   P1   modified key tree + T-mesh,      no splitting
//   P1'  modified key tree + T-mesh,      splitting
//   P2   modified key tree + T-mesh + cluster rekeying, no splitting
//   P2'  modified key tree + T-mesh + cluster rekeying, splitting
//   Pip  original key tree + IP multicast (DVMRP SPT),  no splitting
//
// Workload (§4.3): `initial_users` join at random times; then one rekey
// interval processes `batch_joins` joins and `batch_leaves` leaves as a
// batch; the resulting rekey message is distributed by each protocol and we
// report, per user, the number of encryptions received and forwarded, and,
// per network link, the number of encryptions carried.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "metrics/registry.h"
#include "protocols/group_session.h"
#include "topology/gtitm.h"

namespace tmesh {

struct BandwidthReport {
  std::string protocol;
  std::size_t rekey_cost = 0;              // encryptions in the rekey message
  std::vector<double> encs_received_per_user;
  std::vector<double> encs_forwarded_per_user;
  std::vector<double> encs_per_link;       // all physical links
};

struct BandwidthConfig {
  std::uint64_t seed = 1;
  int initial_users = 1024;
  int batch_joins = 256;
  int batch_leaves = 256;
  double join_window_s = 2048.0;
  double rekey_interval_s = 512.0;
  int wgl_degree = 4;
  SessionConfig session;
  GtItmParams topology;
  // When non-null, the T-mesh protocols' "tmesh."/"sim." counters
  // accumulate here (the experiment is sequential, so one shared registry
  // is race-free) and every protocol's rekey cost lands in the
  // "bandwidth.rekey_cost" histogram. Reports are identical either way.
  MetricsRegistry* metrics = nullptr;
};

class RekeyBandwidthExperiment {
 public:
  explicit RekeyBandwidthExperiment(const BandwidthConfig& cfg);

  // Runs the full workload and returns one report per protocol, in Table-2
  // order: P0, P0', P1, P1', P2, P2', Pip.
  std::vector<BandwidthReport> Run();

 private:
  BandwidthConfig cfg_;
};

}  // namespace tmesh
