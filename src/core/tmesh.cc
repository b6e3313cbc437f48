#include "core/tmesh.h"

#include <algorithm>
#include <unordered_set>

#include "core/wire.h"

namespace tmesh {

// One multicast session: owns the result, the loss-model RNG, and the
// immutable per-session options. Heap-allocated so concurrent sessions can
// coexist and so scheduled events can safely reference it through the
// Handle that keeps it alive.
struct TMesh::Handle::Session {
  const RekeyMessage* msg = nullptr;
  Options opts;
  HostId source_host = kNoHost;
  bool is_rekey = false;
  Result result;
  Rng loss_rng{1};
  // Exact wire.cc size of each encryption in `msg`, indexed like
  // msg->encryptions; summed per packet by the uplink model.
  std::vector<std::uint32_t> enc_bytes;
  // Size of the Appendix-B group-key unicast's single encryption (group
  // key under the receiver's D-digit individual key).
  std::uint32_t group_key_enc_bytes = 0;
  // Groups this session's trace spans (the chrome-trace pid).
  std::int64_t trace_id = 0;
};

TMesh::Handle::Handle(std::unique_ptr<Session> s) : session_(std::move(s)) {}
TMesh::Handle::Handle(Handle&&) noexcept = default;
TMesh::Handle& TMesh::Handle::operator=(Handle&&) noexcept = default;
TMesh::Handle::~Handle() = default;

const TMesh::Result& TMesh::Handle::result() const {
  TMESH_CHECK(session_ != nullptr);
  return session_->result;
}

TMesh::Result TMesh::Handle::TakeResult() {
  TMESH_CHECK(session_ != nullptr);
  return std::move(session_->result);
}

void TMesh::SetUplinkModel(const UplinkModel& model) {
  TMESH_CHECK(model.kbps >= 0.0);
  uplink_ = model;
  uplink_free_.assign(static_cast<std::size_t>(dir_.network().host_count()),
                      0);
}

void TMesh::SetMetrics(MetricsRegistry* metrics) {
  registry_ = metrics;
  if (metrics == nullptr) {
    metrics_ = MetricHandles{};
    metric_uplink_bytes_.clear();
    return;
  }
  metrics_.messages_sent = metrics->GetCounter("tmesh.messages_sent");
  metrics_.messages_lost = metrics->GetCounter("tmesh.messages_lost");
  metrics_.retries = metrics->GetCounter("tmesh.retries");
  metrics_.deliveries_failed = metrics->GetCounter("tmesh.deliveries_failed");
  metrics_.forwards = metrics->GetCounter("tmesh.forwards");
  metrics_.deliveries = metrics->GetCounter("tmesh.deliveries");
  metrics_.encs_sent = metrics->GetCounter("tmesh.encs_sent");
  metrics_.split_messages = metrics->GetCounter("tmesh.split_messages");
  metrics_.uplink_bytes = metrics->GetCounter("tmesh.uplink_bytes");
  metrics_.sessions = metrics->GetCounter("tmesh.sessions");
  metric_uplink_bytes_.assign(
      static_cast<std::size_t>(dir_.network().host_count()), 0.0);
}

void TMesh::FlushMetrics() {
  if (registry_ == nullptr) return;
  Histogram* per_host = registry_->GetHistogram("tmesh.uplink_bytes_per_host");
  for (double& bytes : metric_uplink_bytes_) {
    if (bytes > 0.0) per_host->Observe(bytes);
    bytes = 0.0;
  }
}

void TMesh::CandidatesOf(const NeighborTable::Entry& entry, int row,
                         bool cluster_mode) {
  std::vector<UserId>& out = scratch_.cand;
  out.clear();
  if (cluster_mode && row == dir_.params().digits - 2) {
    // Footnote 8: at the (D-2)th row prefer the earliest joiner so that
    // cluster leaders receive rekey messages at forwarding level D-1.
    std::vector<const NeighborRecord*>& live = scratch_.live;
    live.clear();
    for (const NeighborRecord& rec : entry) {
      if (dir_.IsAlive(rec.id)) live.push_back(&rec);
    }
    std::sort(live.begin(), live.end(),
              [](const NeighborRecord* a, const NeighborRecord* b) {
                if (a->join_time != b->join_time) {
                  return a->join_time < b->join_time;
                }
                return a->rtt_ms < b->rtt_ms;
              });
    for (const NeighborRecord* rec : live) out.push_back(rec->id);
    return;
  }
  for (const NeighborRecord& rec : entry) {  // entries are RTT-sorted
    if (dir_.IsAlive(rec.id)) out.push_back(rec.id);
  }
}

void TMesh::SplitFor(const Session& s, const EncList& encs,
                     const DigitString& w_prefix, EncList& out) {
  auto passes = [&](std::int32_t idx) {
    const Encryption& e = s.msg->encryptions[static_cast<std::size_t>(idx)];
    return e.enc_key_id.IsPrefixOf(w_prefix) ||
           w_prefix.IsPrefixOf(e.enc_key_id);
  };
  out.clear();
  const int pkt = s.opts.split_packet_encs;
  if (pkt <= 1) {
    // Unit-of-encryption splitting (the paper's main scheme, Fig. 5).
    for (std::int32_t idx : encs) {
      if (passes(idx)) out.push_back(idx);
    }
    return;
  }
  // Packet-level splitting: a packet (consecutive indices of the original
  // message) travels whole if any of its encryptions is needed downstream.
  std::unordered_set<std::int32_t> keep_packets;
  for (std::int32_t idx : encs) {
    if (passes(idx)) keep_packets.insert(idx / pkt);
  }
  for (std::int32_t idx : encs) {
    if (keep_packets.count(idx / pkt) > 0) out.push_back(idx);
  }
}

TMesh::EncSnapshot TMesh::SplitSnapshot(Session& s, const EncSnapshot& parent,
                                        const DigitString& prefix) {
  SplitFor(s, *parent, prefix, scratch_.split);
  // The filter keeps a subsequence, so equal size means identical contents:
  // share the parent snapshot instead of allocating a copy.
  if (scratch_.split.size() == parent->size()) return parent;
  if (metrics_.split_messages != nullptr) metrics_.split_messages->Increment();
  return std::make_shared<const EncList>(scratch_.split);
}

double TMesh::PacketBytes(const Session& s, const Packet& pkt) const {
  if (!pkt.is_rekey) return uplink_.data_bytes;
  double bytes = uplink_.header_bytes;
  if (pkt.group_key_unicast) return bytes + s.group_key_enc_bytes;
  if (pkt.encs != nullptr) {
    for (std::int32_t idx : *pkt.encs) {
      bytes += s.enc_bytes[static_cast<std::size_t>(idx)];
    }
  }
  return bytes;
}

std::pair<SimTime, SimTime> TMesh::OccupyUplink(HostId from, double bytes) {
  if (metrics_.uplink_bytes != nullptr) {
    // PacketBytes sums integers, so the cast is exact.
    metrics_.uplink_bytes->Add(static_cast<std::int64_t>(bytes));
    metric_uplink_bytes_[static_cast<std::size_t>(from)] += bytes;
  }
  if (uplink_.kbps <= 0.0) return {transport_.Now(), 0};
  auto f = static_cast<std::size_t>(from);
  SimTime depart = std::max(transport_.Now(), uplink_free_[f]);
  SimTime tx = FromMillis(bytes * 8.0 / uplink_.kbps);
  uplink_free_[f] = depart + tx;
  return {depart, tx};
}

void TMesh::SendFirst(Session& s, const UserId* from, HostId from_host,
                      const std::vector<UserId>& candidates, Packet pkt) {
  // The caller just filtered `candidates` to live members; this first
  // attempt borrows the scratch buffer and only copies it on the (rare)
  // loss path, keeping the no-loss forwarding hot path allocation-free.
  if (candidates.empty() || s.opts.max_send_attempts <= 0) return;
  const UserId to = candidates.front();

  bool lost = s.opts.loss_prob > 0.0 && s.loss_rng.Bernoulli(s.opts.loss_prob);
  auto [depart, tx] = OccupyUplink(from_host, PacketBytes(s, pkt));
  Transmit(s, from, from_host, to, pkt, lost, depart, tx);

  if (lost) {
    // §2.3: after detecting the loss (an RTT-scaled timeout), forward to
    // another neighbor in the same table entry. The retry timer is tagged
    // with the sender's host — it re-occupies that host's uplink.
    double rtt = dir_.network().RttHosts(from_host, dir_.HostOf(to));
    SimTime timeout =
        depart + tx + FromMillis(std::max(1.0, rtt * s.opts.retry_rtt_factor));
    Session* sp = &s;
    const UserId from_copy = from != nullptr ? *from : UserId{};
    const bool has_from = from != nullptr;
    transport_.ScheduleAtHost(
        from_host, timeout,
        [this, sp, has_from, from_copy, from_host,
         candidates = std::vector<UserId>(candidates),
         pkt = std::move(pkt)]() mutable {
          RetrySend(*sp, has_from ? &from_copy : nullptr, from_host,
                    std::move(candidates), std::move(pkt), /*attempt=*/1);
        });
  }
}

void TMesh::RetrySend(Session& s, const UserId* from, HostId from_host,
                      std::vector<UserId> candidates, Packet pkt,
                      int attempt) {
  // Drop candidates that died since the last attempt.
  while (!candidates.empty()) {
    std::size_t i = static_cast<std::size_t>(attempt) % candidates.size();
    if (dir_.IsAlive(candidates[i])) break;
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (candidates.empty() || attempt >= s.opts.max_send_attempts) {
    ++s.result.deliveries_failed;
    if (metrics_.deliveries_failed != nullptr) {
      metrics_.deliveries_failed->Increment();
    }
    return;
  }
  if (metrics_.retries != nullptr) metrics_.retries->Increment();
  const UserId to =
      candidates[static_cast<std::size_t>(attempt) % candidates.size()];

  bool lost = s.opts.loss_prob > 0.0 && s.loss_rng.Bernoulli(s.opts.loss_prob);
  auto [depart, tx] = OccupyUplink(from_host, PacketBytes(s, pkt));
  Transmit(s, from, from_host, to, pkt, lost, depart, tx);

  if (lost) {
    double rtt = dir_.network().RttHosts(from_host, dir_.HostOf(to));
    SimTime timeout =
        depart + tx + FromMillis(std::max(1.0, rtt * s.opts.retry_rtt_factor));
    Session* sp = &s;
    const UserId from_copy = from != nullptr ? *from : UserId{};
    const bool has_from = from != nullptr;
    transport_.ScheduleAtHost(
        from_host, timeout,
        [this, sp, has_from, from_copy, from_host,
         candidates = std::move(candidates), pkt = std::move(pkt),
         attempt]() mutable {
          RetrySend(*sp, has_from ? &from_copy : nullptr, from_host,
                    std::move(candidates), std::move(pkt), attempt + 1);
        });
  }
}

void TMesh::Transmit(Session& s, const UserId* from, HostId from_host,
                     const UserId& to, const Packet& pkt, bool lost,
                     SimTime depart, SimTime tx_time) {
  const std::size_t encs = EncCount(pkt);
  HostId to_host = dir_.HostOf(to);

  ++s.result.messages_sent;
  if (lost) ++s.result.messages_lost;
  if (metrics_.messages_sent != nullptr) {
    metrics_.messages_sent->Increment();
    if (lost) metrics_.messages_lost->Increment();
    if (from != nullptr) metrics_.forwards->Increment();
    metrics_.encs_sent->Add(static_cast<std::int64_t>(encs));
  }
  if (from != nullptr) {
    MemberDeliveryRecord& rec =
        s.result.member[static_cast<std::size_t>(from_host)];
    ++rec.stress;
    rec.encs_forwarded += static_cast<std::int64_t>(encs);
  }
  if (s.opts.track_links && dir_.network().HasRouterPaths()) {
    scratch_.path.clear();
    dir_.network().AppendPathLinks(from_host, to_host, scratch_.path);
    for (LinkId l : scratch_.path) {
      s.result.links.encryptions[static_cast<std::size_t>(l)] +=
          static_cast<std::int64_t>(encs);
      ++s.result.links.messages[static_cast<std::size_t>(l)];
    }
  }
  if (lost) {
    if (tracer_ != nullptr) {
      tracer_->Record("forward-lost", s.trace_id,
                      static_cast<std::int64_t>(from_host), ToMillis(depart),
                      ToMillis(tx_time));
    }
    return;
  }

  SimTime arrive = depart + tx_time +
                   FromMillis(dir_.network().OneWayDelayMs(from_host, to_host));
  if (tracer_ != nullptr) {
    tracer_->Record("forward", s.trace_id,
                    static_cast<std::int64_t>(from_host), ToMillis(depart),
                    ToMillis(arrive - depart));
  }
  Session* sp = &s;
  // Delivery runs at the receiver's host: the event reads and writes that
  // host's member record and forwards from that host's uplink.
  transport_.ScheduleAtHost(to_host, arrive, [this, sp, to, pkt, from_host]() {
    Deliver(*sp, to, pkt, from_host);
  });
}

void TMesh::Deliver(Session& s, const UserId& user, const Packet& pkt,
                    HostId from_host) {
  if (!dir_.Contains(user) || !dir_.IsAlive(user)) return;  // raced a leave
  HostId host = dir_.HostOf(user);
  if (metrics_.deliveries != nullptr) metrics_.deliveries->Increment();
  if (tracer_ != nullptr) {
    tracer_->Record("deliver", s.trace_id, static_cast<std::int64_t>(host),
                    ToMillis(transport_.Now()), 0.0);
  }
  MemberDeliveryRecord& rec = s.result.member[static_cast<std::size_t>(host)];
  ++rec.copies;
  if (pkt.group_key_unicast) ++rec.group_key_copies;
  rec.encs_received += static_cast<std::int64_t>(EncCount(pkt));
  if (s.opts.record_encryptions && !pkt.group_key_unicast &&
      pkt.encs != nullptr) {
    auto& got = s.result.member_encs[static_cast<std::size_t>(host)];
    got.insert(got.end(), pkt.encs->begin(), pkt.encs->end());
  }
  bool first = rec.copies == 1;
  if (first) {
    rec.delay_ms = ToMillis(transport_.Now() - s.result.start);
    rec.forward_level = pkt.forward_level;
    rec.from = from_host;
    double unicast = dir_.network().OneWayDelayMs(s.source_host, host);
    rec.rdp = unicast > 0.0 ? rec.delay_ms / unicast : 1.0;
  }

  if (pkt.group_key_unicast) return;  // terminal hop; nothing to forward

  Forward(s, user, pkt);
  if (s.opts.clusters != nullptr && pkt.is_rekey && first) {
    ClusterDuty(s, user, pkt);
  }
}

void TMesh::Forward(Session& s, const UserId& user, const Packet& pkt) {
  const int d = dir_.params().digits;
  const bool cluster_mode = s.opts.clusters != nullptr && pkt.is_rekey;
  // Appendix B: "the message multicast process is as usual when forwarding
  // level is less than D-1" — i.e. rows up to D-2; the last level is the
  // leaders' pairwise unicast instead.
  const int max_row = cluster_mode ? d - 2 : d - 1;
  if (pkt.forward_level >= d) return;

  const NeighborTable& table = dir_.TableOf(user);
  HostId host = dir_.HostOf(user);
  for (int i = pkt.forward_level; i <= max_row; ++i) {
    for (const auto& [digit, entry] : table.row(i)) {
      (void)digit;
      CandidatesOf(entry, i, cluster_mode);
      if (scratch_.cand.empty()) continue;  // all entry records failed
      Packet child = pkt;  // shares the parent payload snapshot
      child.forward_level = i + 1;
      if (pkt.is_rekey && s.opts.split && pkt.encs != nullptr) {
        // All candidates of an (i,j)-entry share the owner's first i digits
        // plus digit j, so Fig. 5's filter is identical for every backup.
        child.encs = SplitSnapshot(s, pkt.encs, scratch_.cand[0].Prefix(i + 1));
      }
      SendFirst(s, &user, host, scratch_.cand, std::move(child));
    }
  }
}

void TMesh::ClusterDuty(Session& s, const UserId& user, const Packet& pkt) {
  const ClusterRekeying& clusters = *s.opts.clusters;
  HostId host = dir_.HostOf(user);
  if (clusters.IsLeader(user)) {
    // Unicast the new group key to each cluster member under its pairwise
    // key: one encryption per member (Appendix B).
    Packet gk;
    gk.forward_level = dir_.params().digits;
    gk.group_key_unicast = true;
    gk.is_rekey = true;
    for (const UserId& peer : clusters.PeersOf(user)) {
      if (!dir_.IsAlive(peer)) continue;
      scratch_.cand.assign(1, peer);
      SendFirst(s, &user, host, scratch_.cand, gk);
    }
  } else if (!pkt.leader_relay) {
    // The single in-cluster receiver of the multicast copy relays the full
    // message to its leader.
    UserId leader = clusters.LeaderOf(user);
    if (leader != user && dir_.IsAlive(leader)) {
      Packet relay = pkt;
      relay.forward_level = dir_.params().digits;  // no further FORWARD rows
      relay.leader_relay = true;
      scratch_.cand.assign(1, leader);
      SendFirst(s, &user, host, scratch_.cand, std::move(relay));
    }
  }
}

TMesh::Handle TMesh::MakeSession(const Options& opts, HostId source_host,
                                 bool is_rekey, const RekeyMessage* msg) {
  auto session = std::make_unique<Session>();
  session->msg = msg;
  session->opts = opts;
  session->source_host = source_host;
  session->is_rekey = is_rekey;
  session->loss_rng = Rng(opts.loss_seed);
  if (msg != nullptr) {
    session->enc_bytes.reserve(msg->encryptions.size());
    for (const Encryption& e : msg->encryptions) {
      session->enc_bytes.push_back(static_cast<std::uint32_t>(WireSize(e)));
    }
    // Appendix-B last hop: the group key (root ID, empty) encrypted under
    // the receiver's individual key (D digits).
    Encryption unicast;
    unicast.enc_key_id = DigitString{};
    for (int i = 0; i < dir_.params().digits; ++i) {
      unicast.enc_key_id.Append(0);
    }
    session->group_key_enc_bytes =
        static_cast<std::uint32_t>(WireSize(unicast));
  }
  auto& result = session->result;
  result.member.resize(static_cast<std::size_t>(dir_.network().host_count()));
  if (opts.record_encryptions) {
    result.member_encs.resize(
        static_cast<std::size_t>(dir_.network().host_count()));
  }
  if (opts.track_links) {
    result.links.encryptions.assign(
        static_cast<std::size_t>(dir_.network().link_count()), 0);
    result.links.messages.assign(
        static_cast<std::size_t>(dir_.network().link_count()), 0);
  }
  result.start = transport_.Now();
  session->trace_id = next_trace_id_++;
  if (metrics_.sessions != nullptr) metrics_.sessions->Increment();
  if (tracer_ != nullptr) {
    tracer_->Record("birth", session->trace_id,
                    static_cast<std::int64_t>(source_host),
                    ToMillis(transport_.Now()), 0.0);
  }
  return Handle(std::move(session));
}

TMesh::Handle TMesh::BeginRekey(const RekeyMessage& msg, const Options& opts) {
  Handle handle = MakeSession(opts, dir_.server_host(), /*is_rekey=*/true,
                              &msg);
  Session& s = *handle.session_;

  // All encryptions, by index — one shared snapshot for every level-0 copy
  // (and, when splitting is off, every downstream hop of the session).
  auto all = std::make_shared<EncList>(msg.encryptions.size());
  for (std::size_t i = 0; i < all->size(); ++i) {
    (*all)[i] = static_cast<std::int32_t>(i);
  }
  const EncSnapshot all_snap = std::move(all);

  // The key server executes FORWARD at level 0: one copy per non-empty
  // (0,j)-entry of its one-row table (Fig. 2 lines 3-5), each split for its
  // next hop (Fig. 5 with s = 0).
  const NeighborTable& st = dir_.ServerTable();
  for (const auto& [digit, entry] : st.row(0)) {
    (void)digit;
    CandidatesOf(entry, 0, /*cluster_mode=*/false);
    if (scratch_.cand.empty()) continue;
    Packet pkt;
    pkt.forward_level = 1;
    pkt.is_rekey = true;
    pkt.encs = opts.split
                   ? SplitSnapshot(s, all_snap, scratch_.cand[0].Prefix(1))
                   : all_snap;
    SendFirst(s, nullptr, dir_.server_host(), scratch_.cand, std::move(pkt));
  }
  return handle;
}

TMesh::Handle TMesh::BeginData(const UserId& sender, const Options& opts) {
  TMESH_CHECK_MSG(dir_.IsAlive(sender), "data sender must be a live member");
  TMESH_CHECK_MSG(!opts.split, "splitting applies to rekey transport only");
  Handle handle =
      MakeSession(opts, dir_.HostOf(sender), /*is_rekey=*/false, nullptr);
  // The sender runs FORWARD at level 0 over its own table (Fig. 2 lines
  // 6-9): rows 0..D-1.
  Packet pkt;
  pkt.forward_level = 0;
  Forward(*handle.session_, sender, pkt);
  return handle;
}

TMesh::Result TMesh::MulticastRekey(const RekeyMessage& msg,
                                    const Options& opts) {
  Handle handle = BeginRekey(msg, opts);
  TMESH_CHECK_MSG(drain_sim_ != nullptr,
                  "MulticastRekey needs a drainable simulator; use "
                  "BeginRekey over a real transport");
  drain_sim_->Run();
  return handle.TakeResult();
}

TMesh::Result TMesh::MulticastData(const UserId& sender) {
  Handle handle = BeginData(sender, Options{});
  TMESH_CHECK_MSG(drain_sim_ != nullptr,
                  "MulticastData needs a drainable simulator; use "
                  "BeginData over a real transport");
  drain_sim_->Run();
  return handle.TakeResult();
}

}  // namespace tmesh
