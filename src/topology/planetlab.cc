#include "topology/planetlab.h"

#include <array>

namespace tmesh {

namespace {
// Approximate 2004-era inter-continent RTT bases in ms (NA, EU, Asia, AU).
constexpr std::array<std::array<double, 4>, 4> kContinentBaseRtt = {{
    {0.0, 95.0, 170.0, 190.0},
    {95.0, 0.0, 260.0, 310.0},
    {170.0, 260.0, 0.0, 130.0},
    {190.0, 310.0, 130.0, 0.0},
}};
}  // namespace

PlanetLabNetwork::PlanetLabNetwork(const PlanetLabParams& params) {
  TMESH_CHECK(params.hosts >= 2);
  TMESH_CHECK(params.continent_weights.size() == 4);
  Rng rng(params.seed);
  const int n = params.hosts;

  continent_.resize(static_cast<std::size_t>(n));
  site_.resize(static_cast<std::size_t>(n));
  access_rtt_.resize(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> sites_of_continent(4);  // site ids per continent
  std::vector<int> site_continent;                      // continent per site

  for (int h = 0; h < n; ++h) {
    int c = static_cast<int>(rng.Weighted(params.continent_weights));
    continent_[static_cast<std::size_t>(h)] = c;
    auto& sites = sites_of_continent[static_cast<std::size_t>(c)];
    int site;
    if (sites.empty() || rng.Bernoulli(params.new_site_prob)) {
      site = site_count_++;
      sites.push_back(site);
      site_continent.push_back(c);
    } else {
      site = sites[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(sites.size()) - 1))];
    }
    site_[static_cast<std::size_t>(h)] = site;
    access_rtt_[static_cast<std::size_t>(h)] =
        rng.UniformReal(params.access_rtt_min, params.access_rtt_max);
  }

  // Per-site-pair base RTTs keep the matrix metric-like: hosts of the same
  // two sites see the same base, plus small per-pair jitter.
  std::vector<double> site_pair_base(
      static_cast<std::size_t>(site_count_) *
      static_cast<std::size_t>(site_count_), 0.0);
  auto base_at = [&](int s1, int s2) -> double& {
    return site_pair_base[static_cast<std::size_t>(s1) *
                              static_cast<std::size_t>(site_count_) +
                          static_cast<std::size_t>(s2)];
  };
  for (int s1 = 0; s1 < site_count_; ++s1) {
    for (int s2 = s1 + 1; s2 < site_count_; ++s2) {
      int c1 = site_continent[static_cast<std::size_t>(s1)];
      int c2 = site_continent[static_cast<std::size_t>(s2)];
      double base;
      if (c1 == c2) {
        base = rng.UniformReal(params.intra_continent_rtt_min,
                               params.intra_continent_rtt_max);
      } else {
        base = kContinentBaseRtt[static_cast<std::size_t>(c1)]
                                [static_cast<std::size_t>(c2)] +
               rng.UniformReal(-15.0, 45.0);
      }
      base_at(s1, s2) = base_at(s2, s1) = base;
    }
  }

  gw_rtt_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                 0.0);
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = a + 1; b < n; ++b) {
      int sa = site_[static_cast<std::size_t>(a)];
      int sb = site_[static_cast<std::size_t>(b)];
      double rtt;
      if (sa == sb) {
        rtt = rng.UniformReal(params.same_site_rtt_min,
                              params.same_site_rtt_max);
      } else {
        rtt = base_at(sa, sb) + rng.UniformReal(0.0, params.pair_jitter_max);
      }
      Gw(a, b) = Gw(b, a) = rtt;
    }
  }
}

double PlanetLabNetwork::RttGateways(HostId a, HostId b) const {
  if (a == b) return 0.0;
  return GwC(a, b);
}

double PlanetLabNetwork::RttHosts(HostId a, HostId b) const {
  if (a == b) return 0.0;
  return access_rtt_[static_cast<std::size_t>(a)] + GwC(a, b) +
         access_rtt_[static_cast<std::size_t>(b)];
}

}  // namespace tmesh
