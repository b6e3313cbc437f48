#include "topology/graph.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

namespace tmesh {

RouterId Graph::AddNode() {
  csr_ready_.store(false, std::memory_order_relaxed);
  return node_count_++;
}

LinkId Graph::AddEdge(RouterId a, RouterId b, double rtt_ms) {
  TMESH_CHECK(a >= 0 && a < node_count());
  TMESH_CHECK(b >= 0 && b < node_count());
  TMESH_CHECK(a != b);
  TMESH_CHECK(rtt_ms > 0.0);
  csr_ready_.store(false, std::memory_order_relaxed);
  LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, rtt_ms});
  return id;
}

const Graph::Csr& Graph::Adjacency() const {
  if (csr_ready_.load(std::memory_order_acquire)) return csr_;
  std::lock_guard<std::mutex> lk(csr_mu_);
  if (csr_ready_.load(std::memory_order_relaxed)) return csr_;

  // Arcs in link-id order at both endpoints: the order the adjacency lists
  // had when each AddEdge appended to them, which fixes the tie-breaks.
  const auto n = static_cast<std::size_t>(node_count_);
  csr_.offsets.assign(n + 1, 0);
  for (const Link& l : links_) {
    ++csr_.offsets[static_cast<std::size_t>(l.a) + 1];
    ++csr_.offsets[static_cast<std::size_t>(l.b) + 1];
  }
  std::partial_sum(csr_.offsets.begin(), csr_.offsets.end(),
                   csr_.offsets.begin());
  csr_.arcs.resize(2 * links_.size());
  std::vector<std::int32_t> next(csr_.offsets.begin(), csr_.offsets.end() - 1);
  float w_min = std::numeric_limits<float>::infinity(), w_max = 0.0f;
  for (LinkId id = 0; id < link_count(); ++id) {
    const Link& l = links_[static_cast<std::size_t>(id)];
    const float w = static_cast<float>(l.rtt_ms);
    w_min = std::min(w_min, w);
    w_max = std::max(w_max, w);
    csr_.arcs[static_cast<std::size_t>(next[static_cast<std::size_t>(l.a)]++)] =
        Arc{l.b, w, id};
    csr_.arcs[static_cast<std::size_t>(next[static_cast<std::size_t>(l.b)]++)] =
        Arc{l.a, w, id};
  }

  // Bucket width w_min / 2: every relaxation moves at least two widths, so
  // it lands in a later bucket and at most w_max / width + 2 buckets ahead.
  csr_.inv_width = 0.0;
  csr_.ring = 0;
  if (!links_.empty()) {
    csr_.inv_width = 2.0 / static_cast<double>(w_min);
    const double span = static_cast<double>(w_max) * csr_.inv_width + 2.0;
    TMESH_CHECK_MSG(span < static_cast<double>(kMaxBuckets),
                    "link weight ratio beyond the bucket queue's bound");
    csr_.ring = std::bit_ceil(static_cast<std::size_t>(span) + 1);
  }
  csr_ready_.store(true, std::memory_order_release);
  return csr_;
}

Graph::SptResult Graph::Dijkstra(RouterId source) const {
  TMESH_CHECK(source >= 0 && source < node_count());
  const Csr& csr = Adjacency();
  const auto n = static_cast<std::size_t>(node_count_);
  SptResult res;
  res.source = source;
  res.dist_ms.assign(n, std::numeric_limits<float>::infinity());
  res.parent_link.assign(n, kNoLink);
  res.dist_ms[static_cast<std::size_t>(source)] = 0.0f;
  if (csr.arcs.empty()) return res;

  // Entries are (dist bits << 32 | node): for non-negative floats the bit
  // pattern orders like the value, so sorting a bucket's keys yields the
  // (dist, node) order a binary heap of pairs would pop. Bucket b holds
  // distances in [b, b + 1) widths; the ring is scratch kept per thread and
  // cleared first, in case an earlier call on this thread threw mid-run.
  thread_local std::vector<std::vector<std::uint64_t>> scratch;
  // A plain reference, so the loop does not re-resolve the thread-local.
  std::vector<std::vector<std::uint64_t>>& buckets = scratch;
  if (buckets.size() < csr.ring) buckets.resize(csr.ring);
  for (std::vector<std::uint64_t>& b : buckets) b.clear();
  const std::uint64_t mask = csr.ring - 1;
  auto key = [](float d, RouterId v) {
    return (std::uint64_t{std::bit_cast<std::uint32_t>(d)} << 32) |
           static_cast<std::uint32_t>(v);
  };

  buckets[0].push_back(key(0.0f, source));
  std::size_t pending = 1;
  for (std::uint64_t cur = 0; pending > 0; ++cur) {
    std::vector<std::uint64_t>& bucket = buckets[cur & mask];
    if (bucket.empty()) continue;
    if (bucket.size() > 1) std::sort(bucket.begin(), bucket.end());
    for (const std::uint64_t k : bucket) {
      const float d = std::bit_cast<float>(static_cast<std::uint32_t>(k >> 32));
      const auto u = static_cast<std::size_t>(k & 0xffffffffu);
      if (d > res.dist_ms[u]) continue;  // stale
      const Arc* arc = csr.arcs.data() + csr.offsets[u];
      const Arc* end = csr.arcs.data() + csr.offsets[u + 1];
      for (; arc != end; ++arc) {
        const float nd = d + arc->w;
        const auto v = static_cast<std::size_t>(arc->to);
        if (nd < res.dist_ms[v]) {
          res.dist_ms[v] = nd;
          res.parent_link[v] = arc->link;
          const auto b = static_cast<std::uint64_t>(static_cast<double>(nd) *
                                                    csr.inv_width);
          // One unsigned compare for cur < b < cur + ring.
          TMESH_CHECK_MSG(b - cur - 1 < csr.ring - 1,
                          "relaxation outside the bucket queue's window");
          buckets[b & mask].push_back(key(nd, arc->to));
          ++pending;
        }
      }
    }
    pending -= bucket.size();
    bucket.clear();
  }
  return res;
}

void Graph::AppendPathLinks(const SptResult& spt, RouterId dest,
                            std::vector<LinkId>& out) const {
  TMESH_CHECK(dest >= 0 && dest < node_count());
  TMESH_CHECK_MSG(spt.Reachable(dest), "destination unreachable from source");
  RouterId cur = dest;
  while (cur != spt.source) {
    LinkId l = spt.parent_link[static_cast<std::size_t>(cur)];
    TMESH_DCHECK(l != kNoLink);
    out.push_back(l);
    const Link& up = link(l);
    cur = up.a == cur ? up.b : up.a;
  }
}

bool Graph::IsConnected() const {
  if (node_count_ == 0) return true;
  // Union-find over the link list, with path halving.
  std::vector<RouterId> parent(static_cast<std::size_t>(node_count_));
  std::iota(parent.begin(), parent.end(), RouterId{0});
  auto root = [&parent](RouterId v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      auto& p = parent[static_cast<std::size_t>(v)];
      p = parent[static_cast<std::size_t>(p)];
      v = p;
    }
    return v;
  };
  int components = node_count_;
  for (const Link& l : links_) {
    const RouterId ra = root(l.a), rb = root(l.b);
    if (ra != rb) {
      parent[static_cast<std::size_t>(ra)] = rb;
      --components;
    }
  }
  return components == 1;
}

}  // namespace tmesh
