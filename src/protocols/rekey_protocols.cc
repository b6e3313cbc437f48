#include "protocols/rekey_protocols.h"

#include <algorithm>

#include "core/tmesh.h"
#include "ipmc/ip_multicast.h"
#include "keytree/wgl_key_tree.h"
#include "protocols/nice_accounting.h"
#include "sim/sim_metrics.h"

namespace tmesh {

RekeyBandwidthExperiment::RekeyBandwidthExperiment(const BandwidthConfig& cfg)
    : cfg_(cfg) {}

namespace {

// Per-user vectors over current members from a T-mesh result.
void FillFromTMesh(const Directory& dir, const TMesh::Result& res,
                   BandwidthReport& report) {
  for (const auto& [id, info] : dir.members()) {
    (void)id;
    const MemberDeliveryRecord& rec =
        res.member[static_cast<std::size_t>(info.host)];
    report.encs_received_per_user.push_back(
        static_cast<double>(rec.encs_received));
    report.encs_forwarded_per_user.push_back(
        static_cast<double>(rec.encs_forwarded));
  }
  report.encs_per_link.assign(res.links.encryptions.begin(),
                              res.links.encryptions.end());
}

}  // namespace

std::vector<BandwidthReport> RekeyBandwidthExperiment::Run() {
  Rng rng(cfg_.seed);
  const int total_hosts = 1 + cfg_.initial_users + cfg_.batch_joins;
  GtItmNetwork net(cfg_.topology, total_hosts, rng.Fork().engine()());

  SessionConfig scfg = cfg_.session;
  scfg.with_nice = true;
  scfg.seed = rng.Fork().engine()();
  const HostId server = 0;
  GroupSession session(net, server, scfg);

  // ---- Initial population. --------------------------------------------
  std::vector<std::pair<SimTime, HostId>> joins;
  for (HostId h = 1; h <= cfg_.initial_users; ++h) {
    joins.push_back({FromSeconds(rng.UniformReal(0.0, cfg_.join_window_s)), h});
  }
  std::sort(joins.begin(), joins.end());
  for (const auto& [t, h] : joins) {
    auto id = session.Join(h, t);
    TMESH_CHECK(id.has_value());
  }
  session.FlushRekeyState();

  // The original key tree is assumed full and balanced over the initial
  // users (§4.2); member ids are host ids.
  WglKeyTree wgl(cfg_.wgl_degree);
  {
    std::vector<MemberId> members;
    for (HostId h = 1; h <= cfg_.initial_users; ++h) members.push_back(h);
    std::size_t w = 1;
    while (w < members.size()) w *= static_cast<std::size_t>(cfg_.wgl_degree);
    if (w == members.size()) {
      wgl.BuildFullBalanced(members);
    } else {
      wgl.BuildIncremental(members);
    }
  }

  // ---- One rekey interval: batch joins + leaves. ------------------------
  SimTime t0 = FromSeconds(cfg_.join_window_s);
  struct Event {
    SimTime t;
    bool join;
    HostId host;  // joins only
  };
  std::vector<Event> events;
  for (int i = 0; i < cfg_.batch_joins; ++i) {
    events.push_back({t0 + FromSeconds(rng.UniformReal(0.0, cfg_.rekey_interval_s)),
                      true, static_cast<HostId>(cfg_.initial_users + 1 + i)});
  }
  for (int i = 0; i < cfg_.batch_leaves; ++i) {
    events.push_back({t0 + FromSeconds(rng.UniformReal(0.0, cfg_.rekey_interval_s)),
                      false, kNoHost});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });

  std::vector<MemberId> wgl_joins, wgl_leaves;
  for (const Event& ev : events) {
    if (ev.join) {
      auto id = session.Join(ev.host, ev.t);
      TMESH_CHECK(id.has_value());
      wgl_joins.push_back(ev.host);
    } else {
      auto victim = session.directory().RandomAliveMember(rng);
      TMESH_CHECK(victim.has_value());
      HostId vh = session.directory().HostOf(*victim);
      session.Leave(*victim);
      // A member that joined and left within the interval cancels out in
      // the WGL batch.
      auto jit = std::find(wgl_joins.begin(), wgl_joins.end(), vh);
      if (jit != wgl_joins.end()) {
        wgl_joins.erase(jit);
      } else {
        wgl_leaves.push_back(vh);
      }
    }
  }

  // ---- Rekey messages. ---------------------------------------------------
  RekeyMessage msg_wgl = wgl.Rekey(wgl_joins, wgl_leaves);
  RekeyMessage msg_mod = session.key_tree().Rekey();
  RekeyMessage msg_cluster = session.clusters().Rekey();

  // ---- Distribution under each protocol. ---------------------------------
  std::vector<BandwidthReport> reports;
  Directory& dir = session.directory();

  auto note_cost = [&](std::size_t cost) {
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->GetHistogram("bandwidth.rekey_cost")
          ->Observe(static_cast<double>(cost));
    }
  };

  auto run_nice = [&](const std::string& name, bool split) {
    BandwidthReport rep;
    rep.protocol = name;
    rep.rekey_cost = msg_wgl.RekeyCost();
    note_cost(rep.rekey_cost);
    NiceOverlay::Delivery tree = session.nice()->RekeyFromServer(server);
    NiceBandwidth bw = AccountNiceRekey(net, tree, wgl, msg_wgl, split);
    for (const auto& [id, info] : dir.members()) {
      (void)id;
      rep.encs_received_per_user.push_back(static_cast<double>(
          bw.encs_received[static_cast<std::size_t>(info.host)]));
      rep.encs_forwarded_per_user.push_back(static_cast<double>(
          bw.encs_forwarded[static_cast<std::size_t>(info.host)]));
    }
    rep.encs_per_link.assign(bw.link_encryptions.begin(),
                             bw.link_encryptions.end());
    reports.push_back(std::move(rep));
  };

  auto run_tmesh = [&](const std::string& name, const RekeyMessage& msg,
                       bool split, bool cluster) {
    BandwidthReport rep;
    rep.protocol = name;
    rep.rekey_cost = msg.RekeyCost();
    note_cost(rep.rekey_cost);
    Simulator sim;
    TMesh tmesh(dir, sim);
    tmesh.SetMetrics(cfg_.metrics);
    TMesh::Options opts;
    opts.split = split;
    opts.clusters = cluster ? &session.clusters() : nullptr;
    opts.track_links = true;
    TMesh::Handle handle = tmesh.BeginRekey(msg, opts);
    sim.Run();
    TMesh::Result res = handle.TakeResult();
    if (cfg_.metrics != nullptr) {
      tmesh.FlushMetrics();
      ExportSimMetrics(sim, *cfg_.metrics);
    }
    FillFromTMesh(dir, res, rep);
    reports.push_back(std::move(rep));
  };

  run_nice("P0", /*split=*/false);
  run_nice("P0'", /*split=*/true);
  run_tmesh("P1", msg_mod, /*split=*/false, /*cluster=*/false);
  run_tmesh("P1'", msg_mod, /*split=*/true, /*cluster=*/false);
  run_tmesh("P2", msg_cluster, /*split=*/false, /*cluster=*/true);
  run_tmesh("P2'", msg_cluster, /*split=*/true, /*cluster=*/true);

  {
    BandwidthReport rep;
    rep.protocol = "Pip";
    rep.rekey_cost = msg_wgl.RekeyCost();
    note_cost(rep.rekey_cost);
    IpMulticast ipmc(net);
    std::vector<HostId> receivers;
    for (const auto& [id, info] : dir.members()) {
      (void)id;
      receivers.push_back(info.host);
    }
    IpMulticast::Result res =
        ipmc.Multicast(server, receivers, msg_wgl.RekeyCost());
    for (std::size_t i = 0; i < receivers.size(); ++i) {
      rep.encs_received_per_user.push_back(
          static_cast<double>(msg_wgl.RekeyCost()));
      rep.encs_forwarded_per_user.push_back(0.0);  // routers forward, not users
    }
    rep.encs_per_link.assign(res.link_encryptions.begin(),
                             res.link_encryptions.end());
    reports.push_back(std::move(rep));
  }

  return reports;
}

}  // namespace tmesh
