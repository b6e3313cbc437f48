// The traced stand-in for KeyServer: the same public calls KeyServer makes,
// in the same order and with the same seeds, each wrapped in a layer span.
//
//   join:     IdAssigner::AssignId -> Directory::AddMember ->
//             ModifiedKeyTree::Join -> ClusterRekeying::Join
//   leave:    Directory::RemoveMember -> ModifiedKeyTree::Leave ->
//             ClusterRekeying::Leave
//   interval: ModifiedKeyTree::Rekey -> ClusterRekeying::DiscardPending ->
//             TMesh::BeginRekey, then the tick re-arms at absolute cadence
//
// It covers the configuration the benchmark uses (no cluster heuristic, no
// crash injection). Because every output (IDs, rekey messages, deliveries)
// comes from the same calls, a traced run's digest must equal the untraced
// run's; perfbench/run.py checks that.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/key_server.h"
#include "harness.h"

namespace perfbench {

class ComposedKeyServer {
 public:
  using IntervalRecord = tmesh::KeyServer::IntervalRecord;

  ComposedKeyServer(tmesh::Transport& transport,
                    const tmesh::KeyServer::Config& cfg, Tracer* tracer)
      : cfg_(cfg),
        dir_(*cfg.net, cfg.group, cfg.server_host),
        assigner_(dir_, cfg.assign, cfg.seed),
        mtree_(cfg.group.digits),
        clusters_(cfg.group.digits),
        transport_(transport),
        tmesh_(dir_, transport),
        tracer_(tracer) {}

  void SetMetrics(tmesh::MetricsRegistry* m) { tmesh_.SetMetrics(m); }
  // Redirects later spans (set-up and measured phase keep separate totals).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  void SetIntervalHandler(std::function<void(const IntervalRecord&)> h) {
    on_interval_ = std::move(h);
  }

  void Start() {
    running_ = true;
    if (tick_at_ == tmesh::kNoTime) {
      tick_at_ = transport_.Now() + cfg_.rekey_interval;
      transport_.ScheduleIn(cfg_.rekey_interval, [this]() { EndInterval(); });
    }
  }
  void Stop() { running_ = false; }
  tmesh::SimTime next_interval_at() const { return tick_at_; }

  std::optional<tmesh::UserId> RequestJoin(tmesh::HostId host) {
    tmesh::IdAssignStats stats;
    std::optional<tmesh::UserId> id = Traced(tracer_, Layer::kIdAssign, [&] {
      return assigner_.AssignId(host, &stats);
    });
    id_queries_ += stats.queries;
    id_probes_ += stats.rtt_probes;
    ++joins_;
    if (!id.has_value()) return std::nullopt;
    const tmesh::SimTime now = transport_.Now();
    Traced(tracer_, Layer::kDirAdd, [&] { dir_.AddMember(*id, host, now); });
    Traced(tracer_, Layer::kMtreeJoinLeave, [&] { mtree_.Join(*id); });
    Traced(tracer_, Layer::kClusters, [&] { clusters_.Join(*id, now); });
    ++interval_joins_;
    return id;
  }

  void RequestLeave(tmesh::UserId id) {
    Traced(tracer_, Layer::kDirRemove, [&] { dir_.RemoveMember(id); });
    Traced(tracer_, Layer::kMtreeJoinLeave, [&] { mtree_.Leave(id); });
    Traced(tracer_, Layer::kClusters, [&] { clusters_.Leave(id); });
    ++interval_leaves_;
    ++leaves_;
  }

  tmesh::TMesh::Handle MulticastData(const tmesh::UserId& sender) {
    return Traced(tracer_, Layer::kTmeshBegin,
                  [&] { return tmesh_.BeginData(sender); });
  }

  const tmesh::Directory& directory() const { return dir_; }
  const tmesh::ModifiedKeyTree& key_tree() const { return mtree_; }
  std::uint32_t group_key_version() const {
    return mtree_.KeyVersion(tmesh::DigitString{});
  }
  const std::vector<IntervalRecord>& history() const { return history_; }
  const tmesh::TMesh::Result& delivery(int i) const {
    return deliveries_[static_cast<std::size_t>(i)].result();
  }
  const tmesh::RekeyMessage& message(int i) const {
    return *messages_[static_cast<std::size_t>(i)];
  }

  // Totals over every RequestJoin/RequestLeave so far.
  long joins() const { return joins_; }
  long leaves() const { return leaves_; }
  long id_queries() const { return id_queries_; }
  long id_probes() const { return id_probes_; }
  long rekeys() const { return rekeys_; }
  double rekey_encryptions() const { return rekey_encryptions_; }

 private:
  void EndInterval() {
    const tmesh::SimTime fired_at = tick_at_;
    tick_at_ = tmesh::kNoTime;
    IntervalRecord rec;
    rec.when = transport_.Now();
    rec.joins = interval_joins_;
    rec.leaves = interval_leaves_;
    interval_joins_ = 0;
    interval_leaves_ = 0;
    tmesh::RekeyMessage chosen = Traced(tracer_, Layer::kMtreeRekey, [&] {
      return mtree_.Rekey(cfg_.rekey_shards);
    });
    Traced(tracer_, Layer::kClusters, [&] { clusters_.DiscardPending(); });
    rec.rekey_cost = chosen.RekeyCost();
    ++rekeys_;
    rekey_encryptions_ += static_cast<double>(rec.rekey_cost);
    if (rec.rekey_cost > 0 && dir_.alive_count() > 0) {
      messages_.push_back(
          std::make_unique<tmesh::RekeyMessage>(std::move(chosen)));
      tmesh::TMesh::Options opts;
      opts.split = cfg_.split;
      opts.record_encryptions = cfg_.record_encryptions;
      opts.loss_prob = cfg_.loss_prob;
      opts.max_send_attempts = cfg_.max_send_attempts;
      opts.loss_seed = cfg_.seed * 0x9E3779B97F4A7C15ull +
                       static_cast<std::uint64_t>(deliveries_.size());
      deliveries_.push_back(Traced(tracer_, Layer::kTmeshBegin, [&] {
        return tmesh_.BeginRekey(*messages_.back(), opts);
      }));
      rec.delivery = static_cast<int>(deliveries_.size()) - 1;
    }
    history_.push_back(rec);
    if (running_) {
      tick_at_ = std::max(fired_at + cfg_.rekey_interval, transport_.Now());
      transport_.ScheduleAt(tick_at_, [this]() { EndInterval(); });
    }
    if (on_interval_) on_interval_(history_.back());
  }

  tmesh::KeyServer::Config cfg_;
  tmesh::Directory dir_;
  tmesh::IdAssigner assigner_;
  tmesh::ModifiedKeyTree mtree_;
  tmesh::ClusterRekeying clusters_;
  tmesh::Transport& transport_;
  tmesh::TMesh tmesh_;
  Tracer* tracer_;
  bool running_ = false;
  tmesh::SimTime tick_at_ = tmesh::kNoTime;
  int interval_joins_ = 0;
  int interval_leaves_ = 0;
  long joins_ = 0;
  long leaves_ = 0;
  long id_queries_ = 0;
  long id_probes_ = 0;
  long rekeys_ = 0;
  double rekey_encryptions_ = 0.0;
  std::function<void(const IntervalRecord&)> on_interval_;
  std::vector<IntervalRecord> history_;
  std::vector<tmesh::TMesh::Handle> deliveries_;
  std::vector<std::unique_ptr<tmesh::RekeyMessage>> messages_;
};

}  // namespace perfbench
