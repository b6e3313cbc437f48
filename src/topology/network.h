// The network abstraction every protocol in this library runs over.
//
// A Network exposes the measurements the paper's protocols use:
//   - end-host RTT h(u,w) — what neighbor-table entries store (§2.2 fn. 2);
//   - gateway-router RTT r(u,w) — what the ID-assignment protocol compares
//     against the delay thresholds R_i (§3.1.2: "u uses r(u,w) instead of
//     h(u,w) to estimate whether it is close to w topologically");
//   - the host-gateway RTT needed to derive one from the other;
//   - optionally, the router-level link path between two hosts, for the
//     link-stress / encryptions-per-link metrics (Fig. 13(c)).
//
// One-way latency is modeled as RTT/2, exactly as the paper sets "one-way
// delay between two members to be half of their RTT" (§4).
#pragma once

#include <cstdint>
#include <vector>

#include "topology/graph.h"

namespace tmesh {

using HostId = std::int32_t;
inline constexpr HostId kNoHost = -1;

class Network {
 public:
  virtual ~Network() = default;

  virtual int host_count() const = 0;

  // End-host round-trip time in milliseconds.
  virtual double RttHosts(HostId a, HostId b) const = 0;

  // RTT between the gateway (first-hop) routers of a and b.
  virtual double RttGateways(HostId a, HostId b) const = 0;

  // RTT between a host and its own gateway router.
  virtual double RttHostGateway(HostId a) const = 0;

  // One-way end-host latency = RTT/2.
  double OneWayDelayMs(HostId a, HostId b) const {
    return a == b ? 0.0 : RttHosts(a, b) / 2.0;
  }

  // Router-level paths (for link-stress metrics). Networks without a router
  // graph (the PlanetLab RTT matrix) return false and the metrics layer
  // skips per-link accounting.
  virtual bool HasRouterPaths() const { return false; }
  virtual int link_count() const { return 0; }
  // Appends the LinkIds on the unicast path from a to b. Only valid when
  // HasRouterPaths(). Hosts on the same router yield an empty path.
  virtual void AppendPathLinks(HostId a, HostId b,
                               std::vector<LinkId>& out) const {
    (void)a;
    (void)b;
    (void)out;
    TMESH_CHECK_MSG(false, "this network has no router-level paths");
  }
};

}  // namespace tmesh
