// Weighted undirected router graph with single-source shortest paths.
//
// The evaluation topologies (§4) need two queries: the RTT between any two
// attachment routers (edge weights are two-way propagation delays, per the
// paper's GT-ITM setup, so a shortest-path distance *is* an RTT), and the
// router-level link path between two routers (for the link-stress metric of
// Fig. 13(c)).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/check.h"

namespace tmesh {

using RouterId = std::int32_t;
using LinkId = std::int32_t;

inline constexpr RouterId kNoRouter = -1;
inline constexpr LinkId kNoLink = -1;

class Graph {
 public:
  RouterId AddNode();
  // Adds an undirected edge with weight `rtt_ms` (a two-way delay). Returns
  // its LinkId; link ids are dense in [0, link_count()).
  LinkId AddEdge(RouterId a, RouterId b, double rtt_ms);

  int node_count() const { return node_count_; }
  int link_count() const { return static_cast<int>(links_.size()); }

  struct Link {
    RouterId a;
    RouterId b;
    double rtt_ms;
  };
  const Link& link(LinkId id) const {
    TMESH_DCHECK(id >= 0 && id < link_count());
    return links_[static_cast<std::size_t>(id)];
  }

  // The shortest-path tree rooted at one source: distance (ms, two-way) and
  // the parent link toward the source for every reachable node (kNoLink at
  // the source and at unreachable nodes; the parent router is the link's
  // other endpoint).
  struct SptResult {
    RouterId source = kNoRouter;
    std::vector<float> dist_ms;
    std::vector<LinkId> parent_link;

    bool Reachable(RouterId r) const {
      return parent_link[static_cast<std::size_t>(r)] != kNoLink ||
             r == source;
    }
  };

  // Exact Dijkstra on a monotone bucket queue (DESIGN.md §3j). Nodes settle
  // in (distance, node id) order, relaxing arcs in link-id order, so
  // equal-cost ties resolve the same way on every call. Safe to call
  // concurrently on a graph that is no longer being modified. Fails a
  // TMESH_CHECK if the largest link weight exceeds the smallest by more than
  // the bucket ring allows (kMaxBuckets / 2) or if float rounding ever keeps
  // a relaxation inside the current bucket.
  SptResult Dijkstra(RouterId source) const;

  // Appends the link ids on the shortest path from spt.source to `dest`
  // (order: dest-side first). Precondition: dest reachable.
  void AppendPathLinks(const SptResult& spt, RouterId dest,
                       std::vector<LinkId>& out) const;

  // True iff every node is reachable from node 0 (graphs we generate must be
  // connected or RTTs would be infinite).
  bool IsConnected() const;

  // Bucket ring size limit of Dijkstra; bounds the link weight ratio.
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

 private:
  struct Arc {
    RouterId to;
    float w;
    LinkId link;
  };
  // Compressed adjacency: node v's arcs are arcs[offsets[v], offsets[v+1]),
  // in link-id order. Built from links_ on the first Dijkstra after a
  // change, together with the bucket-queue geometry.
  struct Csr {
    std::vector<std::int32_t> offsets;
    std::vector<Arc> arcs;
    double inv_width = 0.0;  // buckets per ms: 2 / (smallest arc weight)
    std::size_t ring = 0;    // bucket ring size, a power of two
  };
  const Csr& Adjacency() const;

  int node_count_ = 0;
  std::vector<Link> links_;
  mutable std::mutex csr_mu_;
  mutable std::atomic<bool> csr_ready_{false};
  mutable Csr csr_;
};

}  // namespace tmesh
