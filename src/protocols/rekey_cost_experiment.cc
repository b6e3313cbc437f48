#include "protocols/rekey_cost_experiment.h"

#include <algorithm>

#include "keytree/wgl_key_tree.h"
#include "sim/replica_runner.h"

namespace tmesh {

std::vector<RekeyCostCell> RunRekeyCostExperiment(const RekeyCostConfig& cfg) {
  TMESH_CHECK(!cfg.grid.empty());
  TMESH_CHECK(cfg.runs >= 1);
  const int max_joins = *std::max_element(cfg.grid.begin(), cfg.grid.end());

  std::vector<RekeyCostCell> cells;
  for (int j : cfg.grid) {
    for (int l : cfg.grid) {
      cells.push_back(RekeyCostCell{j, l, 0.0, 0.0, 0.0});
    }
  }

  // Per-run generators are forked from the master sequentially — exactly
  // the stream the old sequential loop drew — then each run executes
  // independently on the replica pool. A run's contribution is a local copy
  // of the cell grid; contributions merge in run order, so the averages are
  // bit-identical to the sequential loop for any thread count.
  // Each run's cells and its metric observations travel together and merge
  // in run order, keeping the registry thread-count-independent.
  struct RunOut {
    std::vector<RekeyCostCell> cells;
    MetricsRegistry reg;
  };

  Rng master(cfg.seed);
  std::vector<Rng> run_rngs;
  run_rngs.reserve(static_cast<std::size_t>(cfg.runs));
  for (int run = 0; run < cfg.runs; ++run) run_rngs.push_back(master.Fork());

  ReplicaRunner runner(cfg.threads);
  runner.Run(
      cfg.runs,
      [&](ReplicaRunner::Replica& rep) {
    // A zeroed copy of the grid: merge may already have folded earlier
    // runs into `cells`, so only the (j, l) coordinates carry over.
    RunOut out;
    std::vector<RekeyCostCell>& local = out.cells;
    local.reserve(cells.size());
    for (const RekeyCostCell& c : cells) {
      local.push_back(RekeyCostCell{c.joins, c.leaves, 0.0, 0.0, 0.0});
    }
    Rng rng = run_rngs[static_cast<std::size_t>(rep.index)];
    const int total_hosts = 1 + cfg.initial_users + max_joins;
    GtItmNetwork net(cfg.topology, total_hosts, rng.Fork().engine()());

    // Base group: 1024 users with protocol-assigned IDs; NICE not needed.
    SessionConfig scfg = cfg.session;
    scfg.with_nice = false;
    scfg.seed = rng.Fork().engine()();
    GroupSession base(net, /*server=*/0, scfg);
    std::vector<std::pair<SimTime, HostId>> joins;
    for (HostId h = 1; h <= cfg.initial_users; ++h) {
      joins.push_back(
          {FromSeconds(rng.UniformReal(0.0, cfg.join_window_s)), h});
    }
    std::sort(joins.begin(), joins.end());
    for (const auto& [t, h] : joins) {
      auto id = base.Join(h, t);
      TMESH_CHECK(id.has_value());
    }
    base.FlushRekeyState();

    std::vector<MemberId> wgl_members;
    for (HostId h = 1; h <= cfg.initial_users; ++h) wgl_members.push_back(h);
    std::size_t w = 1;
    while (w < wgl_members.size()) {
      w *= static_cast<std::size_t>(cfg.wgl_degree);
    }
    const bool full = w == wgl_members.size();

    for (RekeyCostCell& cell : local) {
      Rng cell_rng = rng.Fork();
      // Independent copies of every key-management state machine.
      Directory dir = base.directory();
      IdAssigner assigner(dir, cfg.session.assign, cell_rng.engine()());
      ModifiedKeyTree mtree = base.key_tree();
      ClusterRekeying clusters = base.clusters();
      WglKeyTree wgl(cfg.wgl_degree);
      if (full) {
        wgl.BuildFullBalanced(wgl_members);
      } else {
        wgl.BuildIncremental(wgl_members);
      }

      // Interleave J joins and L leaves at random interval offsets.
      struct Ev {
        double t;
        bool join;
        HostId host;
      };
      std::vector<Ev> events;
      for (int i = 0; i < cell.joins; ++i) {
        events.push_back({cell_rng.UniformReal(0.0, 1.0), true,
                          static_cast<HostId>(cfg.initial_users + 1 + i)});
      }
      for (int i = 0; i < cell.leaves; ++i) {
        events.push_back({cell_rng.UniformReal(0.0, 1.0), false, kNoHost});
      }
      std::sort(events.begin(), events.end(),
                [](const Ev& a, const Ev& b) { return a.t < b.t; });

      std::vector<MemberId> wgl_joins, wgl_leaves;
      SimTime tbase = FromSeconds(cfg.join_window_s);
      for (const Ev& ev : events) {
        if (ev.join) {
          auto id = assigner.AssignId(ev.host);
          TMESH_CHECK(id.has_value());
          dir.AddMember(*id, ev.host, tbase + FromSeconds(ev.t));
          mtree.Join(*id);
          clusters.Join(*id, tbase + FromSeconds(ev.t));
          wgl_joins.push_back(ev.host);
        } else {
          auto victim = dir.RandomAliveMember(cell_rng);
          TMESH_CHECK(victim.has_value());
          HostId vh = dir.HostOf(*victim);
          dir.RemoveMember(*victim);
          mtree.Leave(*victim);
          clusters.Leave(*victim);
          auto jit = std::find(wgl_joins.begin(), wgl_joins.end(), vh);
          if (jit != wgl_joins.end()) {
            wgl_joins.erase(jit);
          } else {
            wgl_leaves.push_back(vh);
          }
        }
      }

      cell.modified += static_cast<double>(mtree.Rekey().RekeyCost());
      cell.cluster += static_cast<double>(clusters.Rekey().RekeyCost());
      cell.original +=
          static_cast<double>(wgl.Rekey(wgl_joins, wgl_leaves).RekeyCost());
      if (cfg.metrics != nullptr) {
        out.reg.GetHistogram("rekeycost.modified")->Observe(cell.modified);
        out.reg.GetHistogram("rekeycost.original")->Observe(cell.original);
        out.reg.GetHistogram("rekeycost.cluster")->Observe(cell.cluster);
      }
    }
    return out;
      },
      [&](int, RunOut&& out) {
        const std::vector<RekeyCostCell>& local = out.cells;
        for (std::size_t i = 0; i < cells.size(); ++i) {
          cells[i].modified += local[i].modified;
          cells[i].original += local[i].original;
          cells[i].cluster += local[i].cluster;
        }
        if (cfg.metrics != nullptr) cfg.metrics->MergeFrom(out.reg);
      });

  for (RekeyCostCell& cell : cells) {
    cell.modified /= cfg.runs;
    cell.original /= cfg.runs;
    cell.cluster /= cfg.runs;
  }
  return cells;
}

}  // namespace tmesh
