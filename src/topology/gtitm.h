// GT-ITM-style transit-stub topology with end-host attachment.
//
// The paper's main evaluation substrate is "a transit-stub topology based on
// the GT-ITM topology models [6]. The topology consists of 5000 routers and
// 13000 network links" with two-way propagation delays drawn per link class:
//   stub-stub            U(0.1, 1)  ms
//   stub-transit         U(2, 3)    ms
//   transit-transit (same domain)  U(10, 15) ms
//   transit-transit (cross domain) U(75, 85) ms
// (§4). We implement the generator ourselves (the GT-ITM tool is not
// available offline): transit domains connected by a random ring-plus-chords
// pattern, per-transit-router stub domains built as random connected
// subgraphs, with default parameters tuned to land at ~5000 routers and
// ~13000 links.
//
// Members attach to distinct, uniformly chosen routers; the attachment
// router is the member's gateway, and the host-gateway RTT is zero (the
// paper attaches members directly to routers and abstracts access links on
// GT-ITM).
#pragma once

#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "topology/graph.h"
#include "topology/network.h"

namespace tmesh {

struct GtItmParams {
  std::uint64_t seed = 1;
  int transit_domains = 10;
  int transit_routers_per_domain = 10;
  // Probability of a chord between two transit routers of the same domain
  // (on top of the connecting ring).
  double intra_transit_edge_prob = 0.4;
  // Probability of an extra link between two transit domains (on top of the
  // connecting ring); the endpoint routers are chosen at random.
  double inter_transit_edge_prob = 0.5;
  int stub_domains_per_transit_router = 3;
  int stub_routers_min = 12;
  int stub_routers_max = 21;
  // Probability of a chord between two stub routers of the same stub domain
  // (on top of the connecting spanning tree).
  double intra_stub_edge_prob = 0.19;
  // Probability that a stub domain gets a second (multi-homing) link to a
  // random transit router.
  double stub_multihome_prob = 0.1;

  // Link-delay classes (two-way, ms) — the paper's values.
  double stub_delay_min = 0.1, stub_delay_max = 1.0;
  double stub_transit_delay_min = 2.0, stub_transit_delay_max = 3.0;
  double intra_transit_delay_min = 10.0, intra_transit_delay_max = 15.0;
  double inter_transit_delay_min = 75.0, inter_transit_delay_max = 85.0;
};

class GtItmNetwork : public Network {
 public:
  // Generates the router graph and attaches `hosts` members to distinct
  // uniformly-random routers (attachment randomness from `attach_seed` so
  // the same router graph can host different placements across runs).
  GtItmNetwork(const GtItmParams& params, int hosts,
               std::uint64_t attach_seed);

  int host_count() const override {
    return static_cast<int>(attach_router_.size());
  }
  double RttHosts(HostId a, HostId b) const override;
  double RttGateways(HostId a, HostId b) const override;
  double RttHostGateway(HostId) const override { return 0.0; }

  bool HasRouterPaths() const override { return true; }
  int link_count() const override { return graph_.link_count(); }
  void AppendPathLinks(HostId a, HostId b,
                       std::vector<LinkId>& out) const override;

  const Graph& graph() const { return graph_; }
  RouterId attach_router(HostId h) const {
    return attach_router_[static_cast<std::size_t>(h)];
  }
  int router_count() const { return graph_.node_count(); }
  int transit_router_count() const { return transit_router_count_; }

  // The cached shortest-path tree rooted at a host's attachment router
  // (computed on demand; shared by RTT queries, path extraction, and the
  // IP-multicast baseline). Thread-safe: concurrent replicas sharing one
  // network (the ablation benches under ReplicaRunner) may query in
  // parallel; a cache miss computes the Dijkstra outside the lock and the
  // first insert wins, so the returned reference is stable for the
  // network's lifetime either way.
  const Graph::SptResult& SptFromHost(HostId h) const;
  const Graph::SptResult& SptFromRouter(RouterId r) const;

 private:
  void Generate(const GtItmParams& params);

  Graph graph_;
  int transit_router_count_ = 0;
  std::vector<RouterId> attach_router_;
  mutable std::shared_mutex spt_mu_;
  mutable std::unordered_map<RouterId, std::unique_ptr<Graph::SptResult>>
      spt_cache_;
};

}  // namespace tmesh
