#include "topology/graph.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "topology/gtitm.h"

namespace tmesh {
namespace {

TEST(Graph, SingleEdgeDistance) {
  Graph g;
  RouterId a = g.AddNode(), b = g.AddNode();
  LinkId ab = g.AddEdge(a, b, 5.0);
  auto spt = g.Dijkstra(a);
  EXPECT_FLOAT_EQ(spt.dist_ms[static_cast<std::size_t>(b)], 5.0f);
  EXPECT_EQ(spt.parent_link[static_cast<std::size_t>(b)], ab);
  EXPECT_EQ(spt.parent_link[static_cast<std::size_t>(a)], kNoLink);
}

TEST(Graph, ChoosesShorterOfTwoRoutes) {
  // a - b - c (1+1) vs a - c (3)
  Graph g;
  RouterId a = g.AddNode(), b = g.AddNode(), c = g.AddNode();
  g.AddEdge(a, b, 1.0);
  g.AddEdge(b, c, 1.0);
  LinkId direct = g.AddEdge(a, c, 3.0);
  auto spt = g.Dijkstra(a);
  EXPECT_FLOAT_EQ(spt.dist_ms[static_cast<std::size_t>(c)], 2.0f);
  std::vector<LinkId> path;
  g.AppendPathLinks(spt, c, path);
  EXPECT_EQ(path.size(), 2u);
  for (LinkId l : path) EXPECT_NE(l, direct);
}

TEST(Graph, PathLinksConnectSourceToDest) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode();
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 1);
  g.AddEdge(2, 3, 1);
  g.AddEdge(3, 4, 1);
  auto spt = g.Dijkstra(0);
  std::vector<LinkId> path;
  g.AppendPathLinks(spt, 4, path);
  EXPECT_EQ(path.size(), 4u);
  double total = 0;
  for (LinkId l : path) total += g.link(l).rtt_ms;
  EXPECT_DOUBLE_EQ(total, 4.0);
}

TEST(Graph, DisconnectedNodeUnreachable) {
  Graph g;
  RouterId a = g.AddNode();
  RouterId b = g.AddNode();
  (void)b;
  auto spt = g.Dijkstra(a);
  EXPECT_FALSE(spt.Reachable(1));
  EXPECT_FALSE(g.IsConnected());
}

TEST(Graph, ConnectedDetection) {
  Graph g;
  RouterId a = g.AddNode(), b = g.AddNode(), c = g.AddNode();
  g.AddEdge(a, b, 1);
  EXPECT_FALSE(g.IsConnected());
  g.AddEdge(b, c, 1);
  EXPECT_TRUE(g.IsConnected());
}

TEST(Graph, RejectsSelfLoopAndBadWeight) {
  Graph g;
  RouterId a = g.AddNode();
  RouterId b = g.AddNode();
  EXPECT_THROW(g.AddEdge(a, a, 1.0), std::logic_error);
  EXPECT_THROW(g.AddEdge(a, b, 0.0), std::logic_error);
  EXPECT_THROW(g.AddEdge(a, b, -2.0), std::logic_error);
}

// Property: Dijkstra distances equal brute-force Bellman-Ford distances on
// random connected graphs, and extracted paths sum to the distance.
class GraphPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphPropertyTest, MatchesBellmanFordOnRandomGraphs) {
  const int n = GetParam();
  Rng rng(1234 + static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 5; ++trial) {
    Graph g;
    for (int i = 0; i < n; ++i) g.AddNode();
    // Random tree for connectivity + extra random edges.
    for (int i = 1; i < n; ++i) {
      g.AddEdge(i, static_cast<RouterId>(rng.UniformInt(0, i - 1)),
                rng.UniformReal(0.5, 10.0));
    }
    int extra = n;
    for (int e = 0; e < extra; ++e) {
      int a = static_cast<int>(rng.UniformInt(0, n - 1));
      int b = static_cast<int>(rng.UniformInt(0, n - 1));
      if (a != b) g.AddEdge(a, b, rng.UniformReal(0.5, 10.0));
    }
    ASSERT_TRUE(g.IsConnected());

    int src = static_cast<int>(rng.UniformInt(0, n - 1));
    auto spt = g.Dijkstra(src);

    // Bellman-Ford.
    std::vector<double> dist(static_cast<std::size_t>(n), 1e18);
    dist[static_cast<std::size_t>(src)] = 0;
    for (int round = 0; round < n; ++round) {
      for (int l = 0; l < g.link_count(); ++l) {
        const auto& link = g.link(l);
        double w = link.rtt_ms;
        auto a = static_cast<std::size_t>(link.a);
        auto b = static_cast<std::size_t>(link.b);
        if (dist[a] + w < dist[b]) dist[b] = dist[a] + w;
        if (dist[b] + w < dist[a]) dist[a] = dist[b] + w;
      }
    }
    for (int v = 0; v < n; ++v) {
      EXPECT_NEAR(spt.dist_ms[static_cast<std::size_t>(v)],
                  dist[static_cast<std::size_t>(v)], 1e-3);
      if (v != src) {
        std::vector<LinkId> path;
        g.AppendPathLinks(spt, v, path);
        double total = 0;
        for (LinkId l : path) total += g.link(l).rtt_ms;
        EXPECT_NEAR(total, dist[static_cast<std::size_t>(v)], 1e-3);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GraphPropertyTest,
                         ::testing::Values(2, 5, 20, 60));

// Differential reference: the lazy binary-heap Dijkstra the simulator used
// before the bucket queue, over per-node arcs in link-id order. Equal-cost
// paths decide link-stress output, so the production Dijkstra must match it
// bit for bit on parent links as well as distances.
struct ReferenceSpt {
  std::vector<float> dist_ms;
  std::vector<LinkId> parent_link;
};

ReferenceSpt ReferenceDijkstra(const Graph& g, RouterId source) {
  struct Arc {
    RouterId to;
    LinkId link;
    float w;
  };
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<std::vector<Arc>> adj(n);
  for (LinkId l = 0; l < g.link_count(); ++l) {
    const Graph::Link& link = g.link(l);
    const float w = static_cast<float>(link.rtt_ms);
    adj[static_cast<std::size_t>(link.a)].push_back(Arc{link.b, l, w});
    adj[static_cast<std::size_t>(link.b)].push_back(Arc{link.a, l, w});
  }
  ReferenceSpt res;
  res.dist_ms.assign(n, std::numeric_limits<float>::infinity());
  res.parent_link.assign(n, kNoLink);
  using Item = std::pair<float, RouterId>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  res.dist_ms[static_cast<std::size_t>(source)] = 0.0f;
  pq.push({0.0f, source});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > res.dist_ms[static_cast<std::size_t>(u)]) continue;  // stale
    for (const Arc& arc : adj[static_cast<std::size_t>(u)]) {
      const float nd = d + arc.w;
      const auto v = static_cast<std::size_t>(arc.to);
      if (nd < res.dist_ms[v]) {
        res.dist_ms[v] = nd;
        res.parent_link[v] = arc.link;
        pq.push({nd, arc.to});
      }
    }
  }
  return res;
}

// Number of nodes whose distance bits or parent link differ.
int SptMismatches(const Graph& g, RouterId source) {
  const Graph::SptResult spt = g.Dijkstra(source);
  const ReferenceSpt ref = ReferenceDijkstra(g, source);
  int bad = 0;
  for (std::size_t v = 0; v < ref.dist_ms.size(); ++v) {
    if (std::bit_cast<std::uint32_t>(spt.dist_ms[v]) !=
            std::bit_cast<std::uint32_t>(ref.dist_ms[v]) ||
        spt.parent_link[v] != ref.parent_link[v]) {
      ++bad;
    }
  }
  return bad;
}

GtItmParams SmallGtItm(std::uint64_t seed) {
  GtItmParams p;
  p.seed = seed;
  p.transit_domains = 3;
  p.transit_routers_per_domain = 3;
  p.stub_domains_per_transit_router = 2;
  p.stub_routers_min = 3;
  p.stub_routers_max = 5;
  return p;
}

TEST(GraphDifferential, EveryRootOfSmallGtItmMatchesReference) {
  for (std::uint64_t seed : {1u, 7u, 2005u}) {
    GtItmNetwork net(SmallGtItm(seed), 1, 1);
    const Graph& g = net.graph();
    for (RouterId r = 0; r < g.node_count(); ++r) {
      EXPECT_EQ(SptMismatches(g, r), 0) << "seed " << seed << " root " << r;
    }
  }
}

TEST(GraphDifferential, PaperScaleRootsMatchReference) {
  // The seed-2005 transit-stub graph of the Fig. 8 benchmark: ~5000
  // routers, ~13000 links; 107 roots spread over transit and stub routers.
  GtItmParams p;
  p.seed = 2005;
  GtItmNetwork net(p, 1, 1);
  const Graph& g = net.graph();
  ASSERT_GT(g.node_count(), 4000);
  int roots = 0;
  for (RouterId r = 0; r < g.node_count(); r += 47, ++roots) {
    EXPECT_EQ(SptMismatches(g, r), 0) << "root " << r;
  }
  EXPECT_GE(roots, 100);
}

TEST(GraphDifferential, TieHeavyIntegerGridMatchesReference) {
  // Integer weights in {1, 2, 3} on a 24 x 24 grid: exact float sums, so
  // many nodes are reached by several equal-cost paths and the settle order
  // alone picks each parent link.
  const int side = 24;
  Graph g;
  for (int i = 0; i < side * side; ++i) g.AddNode();
  Rng rng(99);
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const RouterId v = y * side + x;
      if (x + 1 < side) {
        g.AddEdge(v, v + 1, static_cast<double>(rng.UniformInt(1, 3)));
      }
      if (y + 1 < side) {
        g.AddEdge(v, v + side, static_cast<double>(rng.UniformInt(1, 3)));
      }
    }
  }
  for (RouterId r = 0; r < g.node_count(); r += 5) {
    EXPECT_EQ(SptMismatches(g, r), 0) << "root " << r;
  }
}

TEST(GraphDifferential, IsolatedNodeMatchesReference) {
  Graph g;
  g.AddNode();
  EXPECT_EQ(SptMismatches(g, 0), 0);
  const Graph::SptResult spt = g.Dijkstra(0);
  EXPECT_EQ(spt.dist_ms[0], 0.0f);
  EXPECT_TRUE(spt.Reachable(0));

  // An isolated node beside a connected pair.
  Graph h;
  for (int i = 0; i < 3; ++i) h.AddNode();
  h.AddEdge(1, 2, 4.0);
  for (RouterId r = 0; r < 3; ++r) EXPECT_EQ(SptMismatches(h, r), 0);
  EXPECT_FALSE(h.Dijkstra(1).Reachable(0));
  EXPECT_FALSE(h.Dijkstra(0).Reachable(2));
}

// The TMESH_CHECK message Dijkstra(0) fails with; empty if it succeeds.
std::string DijkstraFailure(const Graph& g) {
  try {
    (void)g.Dijkstra(0);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(GraphDifferential, WeightRatioBeyondBucketBoundFailsCheck) {
  // The bucket ring must span w_max / (w_min / 2) buckets and is capped at
  // Graph::kMaxBuckets, so a weight ratio past kMaxBuckets / 2 cannot be
  // queued exactly and fails loudly instead of mis-ordering nodes.
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddNode();
  g.AddEdge(0, 1, 0.001);
  g.AddEdge(1, 2, 0.001 * static_cast<double>(Graph::kMaxBuckets));
  EXPECT_NE(DijkstraFailure(g).find("weight ratio"), std::string::npos);

  // Half that ratio fits and still matches the reference.
  Graph h;
  for (int i = 0; i < 3; ++i) h.AddNode();
  h.AddEdge(0, 1, 0.001);
  h.AddEdge(1, 2, 0.001 * static_cast<double>(Graph::kMaxBuckets / 4));
  for (RouterId r = 0; r < 3; ++r) EXPECT_EQ(SptMismatches(h, r), 0);
}

TEST(GraphDifferential, RelaxationLostToFloatRoundingFailsCheck) {
  // A 2e7 ms path, where float spacing is 2 ms, then a 0.9 ms link: the sum
  // rounds back to 2e7 and would land in the current bucket, which the
  // bucket queue cannot order exactly, so it fails the window check.
  Graph g;
  for (int i = 0; i <= 1001; ++i) g.AddNode();
  for (RouterId v = 0; v < 1000; ++v) g.AddEdge(v, v + 1, 20000.0);
  g.AddEdge(1000, 1001, 0.9);
  EXPECT_NE(DijkstraFailure(g).find("bucket queue's window"),
            std::string::npos);
}

}  // namespace
}  // namespace tmesh
