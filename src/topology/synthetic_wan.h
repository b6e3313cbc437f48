// Hash-derived banded WAN with O(1) storage per query.
//
// PlanetLabNetwork materializes a host_count^2 RTT matrix, which caps it at a
// few thousand hosts. This network keeps the same banded structure (hosts in
// sites, sites in continents, RTT = access + gateway band + jitter; see
// planetlab.h and DESIGN.md §2) but derives every quantity on demand from a
// SplitMix64 hash of (seed, host/site/pair), so 10^5..10^6-host directories —
// the `fuzz_churn --scale` through-directory mode and the degree-sweep
// ablations — pay a few hash mixes per RTT probe and no per-pair memory.
//
// Same-band constants as PlanetLabNetwork:
//   same site                 U(0.5, 3) ms
//   same continent, x-site    U(10, 60) ms site-pair base + U(0, 4) jitter
//   cross continent           2004-era base matrix + U(-15, 45) + jitter
//   host-gateway access       U(0.2, 5) ms
// The draws are hash-indexed rather than sequential, so the two networks
// produce different (but same-shaped) matrices for a given seed.
#pragma once

#include <array>
#include <cstdint>

#include "topology/network.h"

namespace tmesh {

struct SyntheticWanParams {
  std::uint64_t seed = 1;
  int hosts = 100000;
  // Number of sites; 0 means max(8, hosts / 16). Continents are assigned
  // per site with PlanetLab's 2004 footprint weights (NA/EU/Asia/AU).
  int sites = 0;
  double same_site_rtt_min = 0.5, same_site_rtt_max = 3.0;
  double intra_continent_rtt_min = 10.0, intra_continent_rtt_max = 60.0;
  double pair_jitter_max = 4.0;
  double access_rtt_min = 0.2, access_rtt_max = 5.0;
};

class SyntheticWanNetwork : public Network {
 public:
  explicit SyntheticWanNetwork(const SyntheticWanParams& params);

  int host_count() const override { return hosts_; }
  double RttHosts(HostId a, HostId b) const override;
  double RttGateways(HostId a, HostId b) const override;
  double RttHostGateway(HostId a) const override;

  int continent_of(HostId h) const { return ContinentOfSite(site_of(h)); }
  int site_of(HostId h) const;
  int site_count() const { return sites_; }

 private:
  int ContinentOfSite(int site) const;

  std::uint64_t seed_;
  int hosts_;
  int sites_;
  SyntheticWanParams p_;
};

}  // namespace tmesh
