// online_synthwan: the operator's workload. A KeyServer on SimTransport over
// SyntheticWanNetwork admits 2000 members in set-up; then every rekey
// interval carries 20 joins, 20 leaves and 10 data multicasts from random
// members in seeded order, and ends with the batch rekey whose split
// multicast runs under 1% seeded per-hop loss, so the §2.3 retries run.
//
// Joining hosts are drawn from the hosts no member is on, so the network
// (and every per-host array a multicast result holds) stays twice the size
// of the group however long the run.
//
// Simulated time is spread out so every multicast drains before the next
// operation: an interval is 4096 s of simulated time, operations sit 64 s
// apart and each multicast is drained for 60 s. Wall time per operation is
// what is measured; simulated time costs nothing.
//
// Untraced: tmesh::KeyServer. Traced: ComposedKeyServer (the same calls,
// spanned), so directory admission, ID assignment, key trees and the
// forwarding drain show as separate layers.
#include <memory>
#include <type_traits>

#include "common/rng.h"
#include "composed_server.h"
#include "core/key_server.h"
#include "topology/synthetic_wan.h"
#include "transport/sim_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tmesh;

constexpr int kInitialMembers = 2000;
constexpr int kJoins = 20;
constexpr int kLeaves = 20;
constexpr int kData = 10;
constexpr int kHosts = 2 * kInitialMembers;  // member hosts in the network
constexpr long kMaxIntervals = 1500;  // schedule length for timed runs
// The deployment is fixed across seeds: the network, the 2000 members the
// set-up admits (and their order), and the key server's own seed. The
// benchmark seed draws the traffic on it: which hosts join later and in
// which order, who leaves, who sends. Drawing the deployment from the seed
// too moved set-up time by 1.8x and step time by ±15% between seeds.
constexpr std::uint64_t kDeploymentSeed = 2005;
constexpr SimTime kInterval = FromSeconds(4096);
constexpr SimTime kSpacing = FromSeconds(64);
constexpr SimTime kDrain = FromSeconds(60);
constexpr double kLoss = 0.01;

struct Op {
  char kind;            // 'J' join, 'L' leave, 'D' data multicast
  HostId host;          // joins: the joining host
  std::uint32_t index;  // leaves / data: alive-set index (mod size)
};

// Everything the run does, drawn before timing starts: the deployment's
// initial members, then the seed's traffic.
struct Schedule {
  std::vector<HostId> initial_hosts;
  std::vector<std::vector<Op>> intervals;
  int host_count = 0;
};

// Joins reuse the hosts of departed members, as a deployment's machines come
// and go: the network has kHosts member hosts, about half of them in the
// group at any time. The schedule replays the benchmark's alive-set
// bookkeeping (append on join, swap-remove on leave) to know which hosts are
// free; a host that leaves becomes free at the end of its interval.
Schedule MakeSchedule(std::uint64_t seed, long intervals) {
  Schedule s;
  s.host_count = kHosts + 1;  // host 0 is the key server
  std::vector<HostId> free(static_cast<std::size_t>(kHosts));
  for (int i = 0; i < kHosts; ++i) {
    free[static_cast<std::size_t>(i)] = static_cast<HostId>(i + 1);
  }
  Rng deployment(kDeploymentSeed);
  deployment.Shuffle(free);
  s.initial_hosts.assign(free.begin(), free.begin() + kInitialMembers);
  free.erase(free.begin(), free.begin() + kInitialMembers);
  std::vector<HostId> alive = s.initial_hosts;
  std::vector<HostId> departed;
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 17);
  auto draw = [&] { return static_cast<std::uint32_t>(rng.engine()()); };
  s.intervals.resize(static_cast<std::size_t>(intervals));
  for (auto& ops : s.intervals) {
    for (int j = 0; j < kJoins; ++j) ops.push_back({'J', kNoHost, 0});
    for (int j = 0; j < kLeaves; ++j) ops.push_back({'L', kNoHost, draw()});
    for (int j = 0; j < kData; ++j) ops.push_back({'D', kNoHost, draw()});
    rng.Shuffle(ops);
    for (Op& op : ops) {
      if (op.kind == 'J') {
        const std::size_t i = draw() % free.size();
        op.host = free[i];
        free[i] = free.back();
        free.pop_back();
        alive.push_back(op.host);
      } else if (op.kind == 'L') {
        const std::size_t i = op.index % alive.size();
        departed.push_back(alive[i]);
        alive[i] = alive.back();
        alive.pop_back();
      }
    }
    free.insert(free.end(), departed.begin(), departed.end());
    departed.clear();
  }
  return s;
}

KeyServer::Config ServerConfig(const Network& net) {
  KeyServer::Config cfg;
  cfg.net = &net;
  cfg.server_host = 0;
  cfg.rekey_interval = kInterval;
  cfg.split = true;
  cfg.loss_prob = kLoss;
  cfg.seed = kDeploymentSeed;
  cfg.rekey_shards = 1;
  return cfg;
}

struct Member {
  UserId id;
  HostId host;
};

// One complete online system: network, simulator, server, and the
// benchmark's own view of the alive set.
template <class Server>
struct World {
  std::unique_ptr<SyntheticWanNetwork> net;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<SimTransport> transport;
  std::unique_ptr<Server> server;
  std::vector<Member> alive;
  long deliveries_checked = 0;
};

template <class Server>
std::unique_ptr<Server> MakeServer(SimTransport& t, const KeyServer::Config& cfg,
                                   Tracer* tr) {
  if constexpr (std::is_same_v<Server, ComposedKeyServer>) {
    return std::make_unique<Server>(t, cfg, tr);
  } else {
    (void)tr;
    return std::make_unique<Server>(t, cfg);
  }
}

// Theorem 1 on one drained multicast: every alive member except the sender
// got exactly one copy. Also folds the per-member delays into the digest.
void CheckDelivery(const TMesh::Result& res, const std::vector<Member>& alive,
                   HostId sender, const char* what, RunResult& r) {
  if (res.deliveries_failed != 0) {
    r.Fail(std::string(what) + ": deliveries_failed=" +
           std::to_string(res.deliveries_failed));
  }
  for (const Member& m : alive) {
    if (m.host == sender) continue;
    const MemberDeliveryRecord& rec =
        res.member[static_cast<std::size_t>(m.host)];
    if (rec.copies != 1) {
      r.Fail(std::string(what) + ": member " + m.id.ToString() + " got " +
             std::to_string(rec.copies) + " copies");
      return;
    }
    r.digest.AddDouble(rec.delay_ms);
  }
}

// Drains the simulator until `until`; afterwards only the next interval
// tick may be pending, or the multicast did not finish in its window.
void Drain(Simulator& sim, SimTime until, Tracer* tr, RunResult& r) {
  Traced(tr, Layer::kSimDrain, [&] { sim.RunUntil(until); });
  if (sim.Pending() != 1) {
    r.Fail("multicast not drained within its window (" +
           std::to_string(sim.Pending()) + " events pending)");
  }
}

// Set-up: fresh network and server, the initial members admitted during
// interval 0, and interval 0's batch rekey multicast drained.
template <class Server>
World<Server> SetUp(const Schedule& s, Tracer* tr, RunResult& r) {
  World<Server> w;
  SyntheticWanParams np;
  np.seed = kDeploymentSeed;
  np.hosts = s.host_count;
  // Sites sized to the live group (~16 members a site), as a network built
  // for the group would have; with members alone in their sites, proximity
  // ID assignment degenerates.
  np.sites = kInitialMembers / 16;
  w.net = Traced(tr, Layer::kTopologyBuild,
                 [&] { return std::make_unique<SyntheticWanNetwork>(np); });
  w.sim = std::make_unique<Simulator>();
  w.transport = std::make_unique<SimTransport>(*w.sim, 0);
  w.server = MakeServer<Server>(*w.transport, ServerConfig(*w.net), tr);
  w.server->Start();
  const SimTime gap = kInterval / (kInitialMembers + 1);
  for (int i = 0; i < kInitialMembers; ++i) {
    w.sim->RunUntil(gap * (i + 1));
    ++r.attempted;
    const HostId h = s.initial_hosts[static_cast<std::size_t>(i)];
    std::optional<UserId> id = w.server->RequestJoin(h);
    if (!id.has_value()) {
      r.Fail("set-up join refused");
      continue;
    }
    w.alive.push_back({*id, h});
    r.digest.Add(id->Hash());
  }
  ++r.attempted;
  w.sim->RunUntil(kInterval);  // the tick: batch rekey + BeginRekey
  Drain(*w.sim, kInterval + kDrain, tr, r);
  const auto& rec = w.server->history().back();
  if (rec.delivery < 0) {
    r.Fail("set-up rekey was not distributed");
  } else {
    CheckDelivery(w.server->delivery(rec.delivery), w.alive, kNoHost,
                  "set-up rekey", r);
  }
  return w;
}

struct Samples {
  std::vector<double> join_ms, leave_ms, data_ms, rekey_ms, interval_ms;
};

// Runs measured intervals 1, 2, ... until StepsLeft says stop.
template <class Server>
void Measure(World<Server>& w, const Schedule& s, const RunOptions& o,
             Tracer* tr, RunResult& r, Samples& out) {
  Simulator& sim = *w.sim;
  Server& server = *w.server;
  const double start = NowSeconds();
  for (long k = 1; k <= static_cast<long>(s.intervals.size()) &&
                   StepsLeft(o, k - 1, start);
       ++k) {
    const double interval_t0 = NowSeconds();
    const SimTime base = kInterval * k;
    const std::vector<Op>& ops = s.intervals[static_cast<std::size_t>(k - 1)];
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const Op& op = ops[j];
      const SimTime at = base + kSpacing * static_cast<SimTime>(j + 1);
      sim.RunUntil(at);
      ++r.attempted;
      if (op.kind == 'J') {
        const double t0 = NowSeconds();
        std::optional<UserId> id = server.RequestJoin(op.host);
        out.join_ms.push_back((NowSeconds() - t0) * 1e3);
        if (!id.has_value()) {
          r.Fail("join refused");
          continue;
        }
        w.alive.push_back({*id, op.host});
        r.digest.Add(id->Hash());
      } else if (op.kind == 'L') {
        const std::size_t i = op.index % w.alive.size();
        const UserId victim = w.alive[i].id;
        w.alive[i] = w.alive.back();
        w.alive.pop_back();
        const double t0 = NowSeconds();
        server.RequestLeave(victim);
        out.leave_ms.push_back((NowSeconds() - t0) * 1e3);
      } else {
        const Member sender = w.alive[op.index % w.alive.size()];
        const double t0 = NowSeconds();
        TMesh::Handle h = server.MulticastData(sender.id);
        Drain(sim, at + kDrain, tr, r);
        out.data_ms.push_back((NowSeconds() - t0) * 1e3);
        CheckDelivery(h.result(), w.alive, sender.host, "data multicast", r);
      }
    }
    // The interval tick, then the split rekey multicast's drain.
    ++r.attempted;
    const double t0 = NowSeconds();
    sim.RunUntil(base + kInterval);
    Drain(sim, base + kInterval + kDrain, tr, r);
    out.rekey_ms.push_back((NowSeconds() - t0) * 1e3);
    const auto& rec = server.history().back();
    r.digest.Add(rec.rekey_cost);
    if (rec.when != base + kInterval || rec.delivery < 0) {
      r.Fail("interval " + std::to_string(k) + " rekey missing");
    } else {
      CheckDelivery(server.delivery(rec.delivery), w.alive, kNoHost,
                    "rekey multicast", r);
    }
    out.interval_ms.push_back((NowSeconds() - interval_t0) * 1e3);
    ++r.steps;
  }
  r.measured_s = NowSeconds() - start;
}

}  // namespace

RunResult RunOnline(const RunOptions& o) {
  RunResult r;
  const Schedule s = MakeSchedule(o.seed, std::max(o.steps, kMaxIntervals));
  Samples out;

  if (!o.traced) {
    std::vector<double> setup;
    std::unique_ptr<World<KeyServer>> world;
    for (int i = 0; i < kSetups; ++i) {
      world.reset();  // free the previous set-up before timing the next
      RunResult one;
      const double t0 = NowSeconds();
      auto w = std::make_unique<World<KeyServer>>(
          SetUp<KeyServer>(s, nullptr, one));
      setup.push_back(NowSeconds() - t0);
      r.attempted += one.attempted;
      r.failed += one.failed;
      r.errors.insert(r.errors.end(), one.errors.begin(), one.errors.end());
      if (i + 1 == kSetups) r.digest = one.digest;
      world = std::move(w);
    }
    r.e2e["setup_s"] = Median(setup);
    r.detail["setup_samples"] = static_cast<double>(setup.size());
    Measure(*world, s, o, nullptr, r, out);
  } else {
    Tracer setup_tracer;
    Tracer tracer;
    MetricsRegistry reg;
    World<ComposedKeyServer> w =
        SetUp<ComposedKeyServer>(s, &setup_tracer, r);
    ComposedKeyServer& srv = *w.server;
    const long joins0 = srv.joins(), leaves0 = srv.leaves();
    const long q0 = srv.id_queries(), p0 = srv.id_probes();
    const long rk0 = srv.rekeys();
    const double enc0 = srv.rekey_encryptions();
    const std::int64_t work0 = AdmissionWork(srv.directory().op_stats());
    const std::uint64_t events0 = w.sim->stats().events_run;
    // Spans and "tmesh." counters from here on belong to the measured phase.
    srv.set_tracer(&tracer);
    srv.SetMetrics(&reg);
    Measure(w, s, o, &tracer, r, out);

    const double joins = std::max(1.0, static_cast<double>(srv.joins() - joins0));
    const double leaves = std::max(1.0, static_cast<double>(srv.leaves() - leaves0));
    const double rekeys = std::max(1.0, static_cast<double>(srv.rekeys() - rk0));
    auto& L = r.layers;
    L["topology.build_s"] = setup_tracer.seconds(Layer::kTopologyBuild);
    L["id_assignment.us_per_join"] = tracer.seconds(Layer::kIdAssign) / joins * 1e6;
    L["id_assignment.queries_per_join"] =
        static_cast<double>(srv.id_queries() - q0) / joins;
    L["id_assignment.rtt_probes_per_join"] =
        static_cast<double>(srv.id_probes() - p0) / joins;
    L["directory.add_us_per_join"] = tracer.seconds(Layer::kDirAdd) / joins * 1e6;
    L["directory.remove_us_per_leave"] =
        tracer.seconds(Layer::kDirRemove) / leaves * 1e6;
    L["directory.admission_work_per_op"] =
        static_cast<double>(AdmissionWork(srv.directory().op_stats()) - work0) /
        (joins + leaves);
    L["clusters.us_per_op"] = tracer.seconds(Layer::kClusters) / (joins + leaves) * 1e6;
    L["mtree.build_s"] = setup_tracer.seconds(Layer::kMtreeJoinLeave) +
                         setup_tracer.seconds(Layer::kMtreeRekey);
    L["mtree.rekey_ms_per_epoch"] = tracer.seconds(Layer::kMtreeRekey) / rekeys * 1e3;
    L["mtree.encryptions_per_rekey"] = (srv.rekey_encryptions() - enc0) / rekeys;
    FillTmeshLayers(r, tracer, reg, w.sim->stats().events_run - events0,
                    static_cast<double>(out.data_ms.size() + out.rekey_ms.size()),
                    static_cast<double>(out.rekey_ms.size()));
    r.spans = tracer;
  }

  r.e2e["step_ms_p10"] = Percentile(out.interval_ms, 10);
  const std::size_t ops = out.join_ms.size() + out.leave_ms.size() +
                          out.data_ms.size() + out.rekey_ms.size();
  r.detail["ops_per_s"] = static_cast<double>(ops) / r.measured_s;
  r.Describe("join_ms", out.join_ms, 99);
  r.Describe("leave_ms", out.leave_ms, 99);
  r.Describe("data_ms", out.data_ms, 99);
  r.Describe("rekey_ms", out.rekey_ms, 90);
  r.Describe("interval_ms", out.interval_ms, 90);
  return r;
}

}  // namespace perfbench
