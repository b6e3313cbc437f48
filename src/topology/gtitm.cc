#include "topology/gtitm.h"

#include <algorithm>
#include <mutex>

namespace tmesh {

GtItmNetwork::GtItmNetwork(const GtItmParams& params, int hosts,
                           std::uint64_t attach_seed) {
  Generate(params);
  TMESH_CHECK_MSG(hosts <= graph_.node_count(),
                  "more hosts than routers; cannot attach distinctly");
  // Attach hosts to distinct uniformly-random routers (partial Fisher-Yates
  // over the router id range).
  Rng rng(attach_seed);
  std::vector<RouterId> routers(static_cast<std::size_t>(graph_.node_count()));
  for (int i = 0; i < graph_.node_count(); ++i) routers[static_cast<std::size_t>(i)] = i;
  rng.Shuffle(routers);
  attach_router_.assign(routers.begin(), routers.begin() + hosts);
}

void GtItmNetwork::Generate(const GtItmParams& params) {
  Rng rng(params.seed);
  auto delay = [&rng](double lo, double hi) { return rng.UniformReal(lo, hi); };

  const int td = params.transit_domains;
  const int tr = params.transit_routers_per_domain;
  TMESH_CHECK(td >= 1 && tr >= 1);

  // Transit routers: domain d holds routers [d*tr, (d+1)*tr).
  for (int i = 0; i < td * tr; ++i) graph_.AddNode();
  transit_router_count_ = td * tr;

  // Intra-domain transit mesh: connecting ring + random chords.
  for (int d = 0; d < td; ++d) {
    const RouterId base = d * tr;
    if (tr > 1) {
      for (int i = 0; i < tr; ++i) {
        RouterId a = base + i;
        RouterId b = base + (i + 1) % tr;
        if (tr == 2 && i == 1) break;  // avoid duplicating the single edge
        graph_.AddEdge(a, b,
                       delay(params.intra_transit_delay_min,
                             params.intra_transit_delay_max));
      }
      for (int i = 0; i < tr; ++i) {
        for (int j = i + 2; j < tr; ++j) {
          if (i == 0 && j == tr - 1) continue;  // ring already has it
          if (rng.Bernoulli(params.intra_transit_edge_prob)) {
            graph_.AddEdge(base + i, base + j,
                           delay(params.intra_transit_delay_min,
                                 params.intra_transit_delay_max));
          }
        }
      }
    }
  }

  // Inter-domain links: ring over domains (guarantees connectivity) plus
  // random extras; endpoints are random routers of each domain.
  auto random_router_of = [&](int domain) {
    return domain * tr + static_cast<RouterId>(rng.UniformInt(0, tr - 1));
  };
  if (td > 1) {
    for (int d = 0; d < td; ++d) {
      int e = (d + 1) % td;
      if (td == 2 && d == 1) break;
      graph_.AddEdge(random_router_of(d), random_router_of(e),
                     delay(params.inter_transit_delay_min,
                           params.inter_transit_delay_max));
    }
    for (int d = 0; d < td; ++d) {
      for (int e = d + 2; e < td; ++e) {
        if (d == 0 && e == td - 1) continue;
        if (rng.Bernoulli(params.inter_transit_edge_prob)) {
          graph_.AddEdge(random_router_of(d), random_router_of(e),
                         delay(params.inter_transit_delay_min,
                               params.inter_transit_delay_max));
        }
      }
    }
  }

  // Stub domains: for each transit router, a fixed number of stub domains,
  // each a random tree plus chords, homed on the transit router.
  for (RouterId t = 0; t < transit_router_count_; ++t) {
    for (int s = 0; s < params.stub_domains_per_transit_router; ++s) {
      int size = static_cast<int>(
          rng.UniformInt(params.stub_routers_min, params.stub_routers_max));
      std::vector<RouterId> stub;
      stub.reserve(static_cast<std::size_t>(size));
      for (int i = 0; i < size; ++i) {
        RouterId r = graph_.AddNode();
        stub.push_back(r);
        if (i > 0) {
          // Random-parent tree keeps the stub connected with low diameter.
          RouterId parent = stub[static_cast<std::size_t>(
              rng.UniformInt(0, i - 1))];
          graph_.AddEdge(r, parent,
                         delay(params.stub_delay_min, params.stub_delay_max));
        }
      }
      for (int i = 0; i < size; ++i) {
        for (int j = i + 1; j < size; ++j) {
          if (rng.Bernoulli(params.intra_stub_edge_prob)) {
            graph_.AddEdge(stub[static_cast<std::size_t>(i)],
                           stub[static_cast<std::size_t>(j)],
                           delay(params.stub_delay_min, params.stub_delay_max));
          }
        }
      }
      // Home link to the owning transit router, plus optional multi-homing.
      RouterId home = stub[static_cast<std::size_t>(
          rng.UniformInt(0, size - 1))];
      graph_.AddEdge(home, t,
                     delay(params.stub_transit_delay_min,
                           params.stub_transit_delay_max));
      if (rng.Bernoulli(params.stub_multihome_prob)) {
        RouterId other_t =
            static_cast<RouterId>(rng.UniformInt(0, transit_router_count_ - 1));
        if (other_t != t) {
          graph_.AddEdge(stub[static_cast<std::size_t>(
                             rng.UniformInt(0, size - 1))],
                         other_t,
                         delay(params.stub_transit_delay_min,
                               params.stub_transit_delay_max));
        }
      }
    }
  }

  TMESH_CHECK_MSG(graph_.IsConnected(), "generated topology must be connected");
}

const Graph::SptResult& GtItmNetwork::SptFromRouter(RouterId r) const {
  {
    std::shared_lock<std::shared_mutex> lk(spt_mu_);
    auto it = spt_cache_.find(r);
    if (it != spt_cache_.end()) return *it->second;
  }
  // Compute outside the lock (Dijkstra over ~5000 routers dwarfs any lock
  // cost); racing computations of the same root produce identical trees and
  // the first emplace wins.
  auto spt = std::make_unique<Graph::SptResult>(graph_.Dijkstra(r));
  std::unique_lock<std::shared_mutex> lk(spt_mu_);
  auto [it, inserted] = spt_cache_.emplace(r, std::move(spt));
  return *it->second;
}

const Graph::SptResult& GtItmNetwork::SptFromHost(HostId h) const {
  return SptFromRouter(attach_router(h));
}

double GtItmNetwork::RttHosts(HostId a, HostId b) const {
  if (a == b) return 0.0;
  return RttGateways(a, b);
}

double GtItmNetwork::RttGateways(HostId a, HostId b) const {
  RouterId ra = attach_router(a), rb = attach_router(b);
  if (ra == rb) return 0.0;
  const auto& spt = SptFromRouter(ra);
  return static_cast<double>(spt.dist_ms[static_cast<std::size_t>(rb)]);
}

void GtItmNetwork::AppendPathLinks(HostId a, HostId b,
                                   std::vector<LinkId>& out) const {
  RouterId ra = attach_router(a), rb = attach_router(b);
  if (ra == rb) return;
  graph_.AppendPathLinks(SptFromRouter(ra), rb, out);
}

}  // namespace tmesh
