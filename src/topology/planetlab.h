// Synthetic PlanetLab-like RTT matrix.
//
// The paper's second substrate is a measured RTT matrix over 227 PlanetLab
// hosts "spread in North America, Europe, Asia, and Australia" (§4), with
// one-way member delay = RTT/2. We do not have the August 2004 measurement,
// so we synthesize a matrix with the same structure the paper's protocols
// exploit (see DESIGN.md §2): hosts grouped into continents and, inside a
// continent, into sites; RTTs drawn per band:
//   same site                 U(0.5, 3) ms
//   same continent, x-site    U(10, 60) ms        (site-pair base, per-host jitter)
//   cross continent           base matrix + jitter (95..310 ms)
// plus a per-host access (host-gateway) RTT U(0.2, 5) ms, so that the
// gateway-RTT vs host-RTT distinction of §3.1.2 is exercised.
//
// The bands are chosen so the paper's delay thresholds R = (150, 30, 9, 3) ms
// are discriminative: R1≈continent, R2≈metro/site cluster, R3/R4≈LAN.
#pragma once

#include <vector>

#include "common/rng.h"
#include "topology/network.h"

namespace tmesh {

struct PlanetLabParams {
  std::uint64_t seed = 1;
  int hosts = 227;
  // Continent weights: NA, EU, Asia, AU — roughly PlanetLab's 2004 footprint.
  std::vector<double> continent_weights{0.45, 0.27, 0.20, 0.08};
  // Probability that a newly placed host starts a new site rather than
  // joining an existing site of its continent.
  double new_site_prob = 0.35;
  double same_site_rtt_min = 0.5, same_site_rtt_max = 3.0;
  double intra_continent_rtt_min = 10.0, intra_continent_rtt_max = 60.0;
  // Per-host-pair jitter added on top of the site-pair base RTT.
  double pair_jitter_max = 4.0;
  double access_rtt_min = 0.2, access_rtt_max = 5.0;
};

class PlanetLabNetwork : public Network {
 public:
  explicit PlanetLabNetwork(const PlanetLabParams& params);

  int host_count() const override { return static_cast<int>(access_rtt_.size()); }
  double RttHosts(HostId a, HostId b) const override;
  double RttGateways(HostId a, HostId b) const override;
  double RttHostGateway(HostId a) const override {
    return access_rtt_[static_cast<std::size_t>(a)];
  }

  int continent_of(HostId h) const { return continent_[static_cast<std::size_t>(h)]; }
  int site_of(HostId h) const { return site_[static_cast<std::size_t>(h)]; }
  int site_count() const { return site_count_; }

 private:
  double& Gw(HostId a, HostId b) {
    return gw_rtt_[static_cast<std::size_t>(a) *
                       static_cast<std::size_t>(host_count()) +
                   static_cast<std::size_t>(b)];
  }
  double GwC(HostId a, HostId b) const {
    return gw_rtt_[static_cast<std::size_t>(a) *
                       static_cast<std::size_t>(access_rtt_.size()) +
                   static_cast<std::size_t>(b)];
  }

  std::vector<double> gw_rtt_;     // host_count^2 gateway-to-gateway RTTs
  std::vector<double> access_rtt_;  // host-gateway RTT per host
  std::vector<int> continent_;
  std::vector<int> site_;
  int site_count_ = 0;
};

}  // namespace tmesh
