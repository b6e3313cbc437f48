// fig08_gtitm1024: sequential replicas of the Fig. 8 experiment — GT-ITM
// (~5000 routers), 1024 users joining, one rekey multicast from the key
// server over T-mesh, and the NICE baseline — the replica body of
// bench/fig08_rekey_latency_gtitm1024 at --threads=1.
//
// Every replica runs on the same network: the router graph of GT-ITM seed
// 2005 with the 1025 hosts attached where that seed puts them. The benchmark
// seed and the replica index draw the join times and so the join order. The
// graph alone moves replica time by ~10%, and so does where the hosts
// attach; with either drawn per replica, the replicas a run happens to fit
// would set its figures as much as the program's speed.
//
// Untraced step: GtItmNetwork + RunLatencyExperiment.
// Traced step:   the same calls RunLatencyExperiment and GroupSession make,
//                one span each, with every shortest-path tree filled up front
//                so Dijkstra time shows as its own layer.
#include <algorithm>
#include <memory>

#include "core/cluster_rekeying.h"
#include "core/directory.h"
#include "core/id_assignment.h"
#include "core/modified_key_tree.h"
#include "core/tmesh.h"
#include "nice/nice_overlay.h"
#include "protocols/latency_experiment.h"
#include "topology/gtitm.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tmesh;

constexpr int kUsers = 1024;
constexpr double kJoinWindowS = 2048.0;  // latency_figure.cc's GT-ITM window
constexpr std::uint64_t kGraphSeed = 2005;

// Replica seeds as bench/fig08 derives them: base + index * 1000003.
std::uint64_t ReplicaSeed(std::uint64_t base, long index) {
  return base + static_cast<std::uint64_t>(index) * 1000003;
}

// A replica's network, built afresh so each replica fills its own
// shortest-path trees: the fixed router graph, with hosts attached as
// MakeFigureNetwork attaches them for run seed kGraphSeed.
std::unique_ptr<GtItmNetwork> ReplicaNetwork() {
  GtItmParams p;
  p.seed = kGraphSeed;
  return std::make_unique<GtItmNetwork>(p, kUsers + 1, kGraphSeed * 31 + 1);
}

void AddToDigest(Digest& d, const LatencyRunResult& res) {
  for (const LatencySeries* s : {&res.tmesh, &res.nice}) {
    for (const std::vector<double>* v : {&s->stress, &s->delay_ms, &s->rdp}) {
      d.Add(v->size());
      for (double x : *v) d.AddDouble(x);
    }
  }
}

// Counts the traced replicas accumulate next to their spans.
struct TracedCounts {
  long spt = 0;
  long joins = 0;
  long id_queries = 0;
  long id_probes = 0;
  std::int64_t admission_work = 0;
  double rekey_encryptions = 0.0;
  std::uint64_t events = 0;
};

// RunLatencyExperiment (rekey path, default session) spelled out call by
// call. The Rng draws, seeds and construction order match
// latency_experiment.cc and group_session.cc, so the series are identical.
LatencyRunResult TracedReplica(std::uint64_t run_seed, Tracer* tr,
                               MetricsRegistry* reg, Simulator& sim,
                               TracedCounts& c) {
  std::unique_ptr<GtItmNetwork> net = Traced(
      tr, Layer::kTopologyBuild, [&] { return ReplicaNetwork(); });
  Traced(tr, Layer::kTopologySpt, [&] {
    for (HostId h = 0; h <= kUsers; ++h) (void)net->SptFromHost(h);
  });
  c.spt += kUsers + 1;

  Rng rng(run_seed * 7 + 13);
  SessionConfig scfg;
  scfg.seed = rng.Fork().engine()();
  const HostId server = 0;
  Directory dir(*net, scfg.group, server);
  IdAssigner assigner(dir, scfg.assign, scfg.seed);
  ModifiedKeyTree mtree(scfg.group.digits);
  ClusterRekeying clusters(scfg.group.digits);
  NiceOverlay nice(*net, scfg.nice);

  std::vector<std::pair<SimTime, HostId>> joins;
  joins.reserve(kUsers);
  for (HostId h = 1; h <= kUsers; ++h) {
    joins.push_back({FromSeconds(rng.UniformReal(0.0, kJoinWindowS)), h});
  }
  std::sort(joins.begin(), joins.end());
  const std::int64_t work0 = AdmissionWork(dir.op_stats());
  for (const auto& [t, h] : joins) {
    IdAssignStats st;
    std::optional<UserId> id =
        Traced(tr, Layer::kIdAssign, [&] { return assigner.AssignId(h, &st); });
    TMESH_CHECK_MSG(id.has_value(), "ID space exhausted during join workload");
    c.id_queries += st.queries;
    c.id_probes += st.rtt_probes;
    ++c.joins;
    Traced(tr, Layer::kDirAdd, [&] { dir.AddMember(*id, h, t); });
    Traced(tr, Layer::kMtreeJoinLeave, [&] { mtree.Join(*id); });
    Traced(tr, Layer::kClusters, [&] { clusters.Join(*id, t); });
    Traced(tr, Layer::kNiceJoin, [&] { nice.Join(h); });
  }
  c.admission_work += AdmissionWork(dir.op_stats()) - work0;
  c.rekey_encryptions += static_cast<double>(
      Traced(tr, Layer::kMtreeRekey, [&] { return mtree.Rekey(); })
          .RekeyCost());
  Traced(tr, Layer::kClusters, [&] { (void)clusters.Rekey(); });

  sim.Reset();
  TMesh tmesh(dir, sim);
  tmesh.SetMetrics(reg);
  const RekeyMessage msg;
  TMesh::Handle handle = Traced(tr, Layer::kTmeshBegin, [&] {
    return tmesh.BeginRekey(msg, TMesh::Options{});
  });
  Traced(tr, Layer::kSimDrain, [&] { sim.Run(); });
  c.events += sim.stats().events_run;
  TMesh::Result tresult = handle.TakeResult();

  LatencyRunResult out;
  for (HostId h = 1; h <= kUsers; ++h) {
    const MemberDeliveryRecord& rec =
        tresult.member[static_cast<std::size_t>(h)];
    TMESH_CHECK_MSG(rec.copies == 1, "Theorem 1 violated in T-mesh session");
    out.tmesh.delay_ms.push_back(rec.delay_ms);
    out.tmesh.rdp.push_back(rec.rdp);
  }
  for (HostId h = 1; h <= kUsers; ++h) {
    out.tmesh.stress.push_back(
        tresult.member[static_cast<std::size_t>(h)].stress);
  }
  NiceOverlay::Delivery d = Traced(
      tr, Layer::kNiceDeliver, [&] { return nice.RekeyFromServer(server); });
  for (HostId h = 1; h <= kUsers; ++h) {
    TMESH_CHECK_MSG(d.copies[static_cast<std::size_t>(h)] == 1,
                    "NICE delivery not exact-once");
    const double delay = d.delay_ms[static_cast<std::size_t>(h)];
    const double unicast = net->OneWayDelayMs(server, h);
    out.nice.delay_ms.push_back(delay);
    out.nice.rdp.push_back(unicast > 0.0 ? delay / unicast : 1.0);
  }
  for (HostId h = 1; h <= kUsers; ++h) {
    out.nice.stress.push_back(d.stress[static_cast<std::size_t>(h)]);
  }
  return out;
}

}  // namespace

RunResult RunFig08(const RunOptions& o) {
  RunResult r;

  // Set-up: the topology a replica needs before its first admission can
  // probe an RTT — the GT-ITM graph with its hosts attached and all 1025
  // shortest-path trees — for the first kSetups replicas; setup_s is the
  // median. (Replicas build their own networks again, filling the trees
  // lazily, inside the measured phase.)
  if (!o.traced) {
    std::vector<double> setup;
    for (int i = 0; i < kSetups; ++i) {
      const double t0 = NowSeconds();
      auto net = ReplicaNetwork();
      for (HostId h = 0; h <= kUsers; ++h) (void)net->SptFromHost(h);
      setup.push_back(NowSeconds() - t0);
    }
    r.e2e["setup_s"] = Median(setup);
    r.detail["setup_samples"] = static_cast<double>(setup.size());
  }

  Tracer tracer;
  Tracer* tr = o.traced ? &tracer : nullptr;
  MetricsRegistry reg;
  TracedCounts counts;
  Simulator sim;  // pooled across replicas, Reset() per replica
  std::vector<double> replica_s;

  const double start = NowSeconds();
  for (long i = 0; StepsLeft(o, i, start); ++i) {
    const std::uint64_t run_seed = ReplicaSeed(o.seed, i);
    ++r.attempted;
    const double t0 = NowSeconds();
    try {
      LatencyRunResult res;
      if (tr != nullptr) {
        res = TracedReplica(run_seed, tr, &reg, sim, counts);
      } else {
        auto net = ReplicaNetwork();
        LatencyRunConfig rcfg;
        rcfg.users = kUsers;
        rcfg.join_window_s = kJoinWindowS;
        sim.Reset();
        res = RunLatencyExperiment(*net, rcfg, run_seed * 7 + 13, &sim);
      }
      if (res.tmesh.delay_ms.size() != static_cast<std::size_t>(kUsers) ||
          res.nice.delay_ms.size() != static_cast<std::size_t>(kUsers)) {
        r.Fail("replica " + std::to_string(i) + ": short delivery series");
      }
      AddToDigest(r.digest, res);
    } catch (const std::exception& e) {
      r.Fail("replica " + std::to_string(i) + ": " + e.what());
    }
    replica_s.push_back(NowSeconds() - t0);
    ++r.steps;
  }
  r.measured_s = NowSeconds() - start;

  r.e2e["step_ms_p10"] = Percentile(replica_s, 10) * 1e3;
  r.detail["ops_per_s"] = static_cast<double>(r.steps) / r.measured_s;
  r.detail["replica_s_p50"] = Median(replica_s);
  r.detail["replica_samples"] = static_cast<double>(replica_s.size());

  if (tr != nullptr) {
    const double n = static_cast<double>(std::max<long>(r.steps, 1));
    const double joins = static_cast<double>(std::max<long>(counts.joins, 1));
    auto& L = r.layers;
    L["topology.build_s"] = tracer.seconds(Layer::kTopologyBuild) / n;
    L["topology.spt_s"] = tracer.seconds(Layer::kTopologySpt) / n;
    L["topology.spt_count"] = static_cast<double>(counts.spt) / n;
    L["id_assignment.us_per_join"] =
        tracer.seconds(Layer::kIdAssign) / joins * 1e6;
    L["id_assignment.queries_per_join"] =
        static_cast<double>(counts.id_queries) / joins;
    L["id_assignment.rtt_probes_per_join"] =
        static_cast<double>(counts.id_probes) / joins;
    L["directory.add_us_per_join"] = tracer.seconds(Layer::kDirAdd) / joins * 1e6;
    L["directory.admission_work_per_op"] =
        static_cast<double>(counts.admission_work) / joins;
    L["clusters.us_per_op"] = tracer.seconds(Layer::kClusters) / joins * 1e6;
    L["nice.join_us"] = tracer.seconds(Layer::kNiceJoin) / joins * 1e6;
    L["nice.delivery_ms"] = tracer.seconds(Layer::kNiceDeliver) / n * 1e3;
    L["mtree.build_s"] = tracer.seconds(Layer::kMtreeJoinLeave) / n;
    L["mtree.rekey_ms_per_epoch"] = tracer.seconds(Layer::kMtreeRekey) / n * 1e3;
    L["mtree.encryptions_per_rekey"] = counts.rekey_encryptions / n;
    FillTmeshLayers(r, tracer, reg, counts.events, n, n);
    r.spans = tracer;
  }
  return r;
}

}  // namespace perfbench
