#include "protocols/latency_experiment.h"

#include <algorithm>

#include "core/tmesh.h"
#include "sim/sim_metrics.h"

namespace tmesh {

LatencyRunResult RunLatencyExperiment(const Network& net,
                                      const LatencyRunConfig& cfg,
                                      std::uint64_t run_seed, Simulator* sim) {
  TMESH_CHECK(cfg.users >= 2);
  TMESH_CHECK_MSG(sim == nullptr || (sim->Empty() && sim->Now() == 0),
                  "external Simulator must be fresh or Reset()");
  TMESH_CHECK(net.host_count() >= cfg.users + 1);
  Rng rng(run_seed);

  SessionConfig scfg = cfg.session;
  scfg.seed = rng.Fork().engine()();
  const HostId server = 0;
  GroupSession session(net, server, scfg);

  // Users join at random times within the window; sort by time.
  std::vector<std::pair<SimTime, HostId>> joins;
  joins.reserve(static_cast<std::size_t>(cfg.users));
  for (HostId h = 1; h <= cfg.users; ++h) {
    joins.push_back({FromSeconds(rng.UniformReal(0.0, cfg.join_window_s)), h});
  }
  std::sort(joins.begin(), joins.end());
  for (const auto& [t, h] : joins) {
    auto id = session.Join(h, t);
    TMESH_CHECK_MSG(id.has_value(), "ID space exhausted during join workload");
  }
  session.FlushRekeyState();

  LatencyRunResult out;
  Simulator local_sim;
  Simulator& session_sim = sim != nullptr ? *sim : local_sim;
  TMesh tmesh(session.directory(), session_sim);
  tmesh.SetMetrics(cfg.metrics);
  tmesh.SetTracer(cfg.tracer);

  HostId sender_host = server;
  // The message must outlive the handle (rekey sessions reference it).
  const RekeyMessage rekey_msg;
  TMesh::Handle handle = [&] {
    if (cfg.data_path) {
      // A random user multicasts a data message.
      auto sender = session.directory().RandomAliveMember(rng);
      TMESH_CHECK(sender.has_value());
      sender_host = session.directory().HostOf(*sender);
      return tmesh.BeginData(*sender);
    }
    // The key server multicasts a (rekey) message; splitting does not
    // change paths or timing, so an empty message suffices for latency.
    return tmesh.BeginRekey(rekey_msg, TMesh::Options{});
  }();
  session_sim.Run();
  TMesh::Result tresult = handle.TakeResult();
  if (cfg.metrics != nullptr) {
    tmesh.FlushMetrics();
    ExportSimMetrics(session_sim, *cfg.metrics);
  }

  for (HostId h = 1; h <= cfg.users; ++h) {
    if (h == sender_host) continue;
    const MemberDeliveryRecord& rec =
        tresult.member[static_cast<std::size_t>(h)];
    TMESH_CHECK_MSG(rec.copies == 1, "Theorem 1 violated in T-mesh session");
    out.tmesh.delay_ms.push_back(rec.delay_ms);
    out.tmesh.rdp.push_back(rec.rdp);
  }
  // Stress distribution covers every user, including the sender when it is
  // a user (its sends are forwarding work it performs).
  for (HostId h = 1; h <= cfg.users; ++h) {
    out.tmesh.stress.push_back(
        tresult.member[static_cast<std::size_t>(h)].stress);
  }

  if (const NiceOverlay* nice = session.nice()) {
    NiceOverlay::Delivery d = cfg.data_path
                                  ? nice->DataFrom(sender_host)
                                  : nice->RekeyFromServer(server);
    for (HostId h = 1; h <= cfg.users; ++h) {
      if (h == d.origin && cfg.data_path) continue;
      TMESH_CHECK_MSG(d.copies[static_cast<std::size_t>(h)] == 1,
                      "NICE delivery not exact-once");
      double delay = d.delay_ms[static_cast<std::size_t>(h)];
      double unicast = net.OneWayDelayMs(sender_host, h);
      out.nice.delay_ms.push_back(delay);
      out.nice.rdp.push_back(unicast > 0.0 ? delay / unicast : 1.0);
    }
    for (HostId h = 1; h <= cfg.users; ++h) {
      out.nice.stress.push_back(d.stress[static_cast<std::size_t>(h)]);
    }
  }
  return out;
}

}  // namespace tmesh
