// T-mesh: the paper's multicast scheme over neighbor tables (§2.3), with
// rekey-message splitting (§2.5, Fig. 5), the cluster-rekeying forwarding
// rule (Appendix B), loss recovery via backup neighbors, and an optional
// access-link model for studying rekey/data interference.
//
// A multicast message carries a forward_level field. The sender emits at
// level 0; a user receiving at level i forwards, for each row i..D-1 of its
// neighbor table, one copy per non-empty entry to that entry's primary
// neighbor, tagged level i+1 (routine FORWARD, Fig. 2). With 1-consistent
// tables and no loss every member except the sender receives exactly one
// copy (Theorem 1) — the tests assert this for every session.
//
// Splitting (rekey transport only): a forwarder at level s copies an
// encryption e into the message for next hop w iff e.ID is a prefix of
// w.ID[0:s] or w.ID[0:s] is a prefix of e.ID (routine REKEY-MESSAGE-SPLIT,
// Fig. 5). Messages are split in units of encryptions by default; packet-
// granularity splitting (§2.5's coarser alternative) is available for the
// ablation benches. Split messages carry indices into the original rekey
// message, never copies.
//
// Failure and loss recovery (§2.3): entries hold up to K neighbors. A
// forwarder skips neighbors already marked failed; when per-hop loss is
// simulated, an unacknowledged transmission is retried after an RTT-scaled
// timeout on the *next* neighbor of the same entry — "it can simply forward
// messages to another neighbor in the same table entry".
//
// Concurrent sessions: the paper's goal is concurrent rekey and data
// transport over the same tables. Begin* starts a session without running
// the simulator, so several sessions (e.g. a rekey burst plus a data
// stream) can progress together; when the access-link model is enabled,
// all sessions of one TMesh share each host's uplink, so a bulky rekey
// message delays concurrent data — unless splitting shrinks it. That is
// the paper's §1 motivation, quantified in bench/ablation_congestion.
//
// Cluster mode (Appendix B): forwarding stops at row D-2; the one member of
// each bottom cluster that receives the message relays it to its cluster
// leader if it is not the leader itself; the leader then unicasts the new
// group key (one encryption under each pairwise key) to every other member
// of its cluster. Per footnote 8, row-(D-2) primaries prefer the earliest
// joiner (the leader) among live entry records.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/cluster_rekeying.h"
#include "core/group_view.h"
#include "keytree/rekey_types.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "sim/simulator.h"
#include "transport/sim_transport.h"
#include "transport/transport.h"

namespace tmesh {

struct MemberDeliveryRecord {
  int copies = 0;        // multicast copies received (Theorem 1: exactly 1)
  double delay_ms = -1.0;  // application-layer delay of the first copy
  double rdp = -1.0;       // relative delay penalty of the first copy
  int forward_level = -1;  // forwarding level of the first copy
  HostId from = kNoHost;   // previous hop of the first copy
  int stress = 0;          // messages this user sent or forwarded
  int group_key_copies = 0;  // Appendix-B pairwise group-key unicasts got
  std::int64_t encs_received = 0;
  std::int64_t encs_forwarded = 0;
};

struct LinkLoad {
  std::vector<std::int64_t> encryptions;  // per LinkId
  std::vector<std::int32_t> messages;     // per LinkId
};

class TMesh {
 public:
  struct Options {
    // Apply REKEY-MESSAGE-SPLIT (rekey sessions only).
    bool split = false;
    // When > 0 (and split is on), split at *packet* granularity instead of
    // encryption granularity: encryptions are packed `split_packet_encs`
    // per packet in message order, and a whole packet is forwarded if any
    // of its encryptions passes the Fig. 5 test (§2.5's alternative; the
    // ablation bench quantifies the overhead).
    int split_packet_encs = 0;
    // Non-null enables Appendix-B cluster forwarding for rekey sessions.
    const ClusterRekeying* clusters = nullptr;
    // Account per-link encryption/message counts (needs router paths).
    bool track_links = false;
    // Record, per member, the indices (into the rekey message) of every
    // encryption received — used by the correctness tests (Corollary 1 and
    // the decryption-closure property).
    bool record_encryptions = false;
    // Per-transmission loss probability. A lost transmission is retried on
    // the next live neighbor of the same entry after a timeout of
    // retry_rtt_factor × the hop RTT (§2.3's burst-loss recovery).
    double loss_prob = 0.0;
    // Seed for the loss draws. Multi-replica callers must derive this from
    // the replica's base seed (as key_server.cc does per interval) —
    // leaving the default correlates every replica's loss pattern.
    std::uint64_t loss_seed = 1;
    int max_send_attempts = 8;
    double retry_rtt_factor = 3.0;
  };

  struct Result {
    std::vector<MemberDeliveryRecord> member;  // indexed by HostId
    LinkLoad links;                            // sized iff track_links
    // Per-host received encryption indices (iff record_encryptions).
    std::vector<std::vector<std::int32_t>> member_encs;
    int messages_sent = 0;   // transmissions (including lost ones)
    int messages_lost = 0;   // transmissions dropped by the loss model
    int deliveries_failed = 0;  // sends abandoned after max_send_attempts
    SimTime start = 0;

    int ReceivedCount() const {
      int n = 0;
      for (const auto& r : member) n += r.copies > 0 ? 1 : 0;
      return n;
    }
  };

  // Optional access-link model: each host's uplink serializes its outgoing
  // messages at `kbps`; a rekey packet of encryptions {e} occupies the
  // uplink for (header_bytes + Σ WireSize(e)) × 8 / kbps milliseconds,
  // using each encryption's exact wire.cc size (IDs are depth-dependent, so
  // a flat per-encryption estimate misstates congestion at other depths).
  // Shared across all concurrent sessions of this TMesh — this is what
  // makes a bulky rekey burst delay a concurrent data stream (§1).
  struct UplinkModel {
    double kbps = 0.0;  // 0 disables the model
    int header_bytes = 48;
    // Transmission size of a non-rekey (data) message in bytes.
    int data_bytes = 1024;
  };

  // The protocol speaks only to the Transport seam (DESIGN.md §3h): a
  // clock for uplink/delivery arithmetic and one-shot timers for scheduled
  // transmissions. Any Transport works; over a SimTransport the event
  // history is byte-identical to the pre-seam simulator binding. Every hop
  // is scheduled with ScheduleAtHost (deliveries at the receiver, retry
  // timers at the sender), which orders exactly like ScheduleAt.
  TMesh(const GroupView& dir, Transport& transport)
      : dir_(dir),
        transport_(transport),
        drain_sim_(SimulatorOf(transport)) {}
  // Convenience for simulator studies: owns a timer-plane SimTransport over
  // `sim`, so the ~45 existing call sites (tests, benches, examples) keep
  // their shape and the MulticastRekey/MulticastData drivers can drain.
  TMesh(const GroupView& dir, Simulator& sim)
      : dir_(dir),
        owned_transport_(
            std::make_unique<SimTransport>(sim, dir.server_host())),
        transport_(*owned_transport_),
        drain_sim_(&sim) {}

  void SetUplinkModel(const UplinkModel& model);

  // Attaches a registry (null detaches). Counter handles under "tmesh." are
  // resolved once here; the forwarding hot path then pays one null check
  // plus plain member increments per transmission. The registry must
  // outlive the TMesh (or be detached first) and is typically the
  // replica-local registry a ReplicaRunner body merges in run-index order.
  void SetMetrics(MetricsRegistry* metrics);
  // Observes the per-uplink byte totals accumulated since attach (or the
  // last flush) into the "tmesh.uplink_bytes_per_host" histogram and resets
  // them. Call once per run, after the simulator drains.
  void FlushMetrics();

  // Attaches a message tracer (null detaches): every session records a
  // birth span, a forward span per transmission (uplink departure →
  // arrival, lossy attempts included), and a zero-length delivery span.
  void SetTracer(MessageTracer* tracer) { tracer_ = tracer; }

  // A running multicast session. Keep the handle alive until the simulator
  // has drained; read result() afterwards. For rekey sessions the message
  // must outlive the handle.
  class Handle {
   public:
    const Result& result() const;
    Result TakeResult();

   private:
    friend class TMesh;
    struct Session;
    explicit Handle(std::unique_ptr<Session> s);
    std::unique_ptr<Session> session_;

   public:
    Handle(Handle&&) noexcept;
    Handle& operator=(Handle&&) noexcept;
    ~Handle();
  };

  // Starts a rekey multicast from the key server (events are scheduled but
  // the simulator is NOT run — drive it yourself for concurrent sessions).
  Handle BeginRekey(const RekeyMessage& msg, const Options& opts);
  // Starts a data multicast from `sender`.
  Handle BeginData(const UserId& sender, const Options& opts);
  Handle BeginData(const UserId& sender) { return BeginData(sender, {}); }

  // Convenience: begin + run the simulator to completion + return results.
  Result MulticastRekey(const RekeyMessage& msg, const Options& opts);
  Result MulticastData(const UserId& sender);

 private:
  // Encryption-index payloads travel as shared immutable snapshots: every
  // hop that forwards the same index set (always, when splitting is off;
  // whenever the Fig. 5 filter keeps everything, when it is on) shares one
  // refcounted vector instead of copying it into each scheduled event.
  using EncList = std::vector<std::int32_t>;
  using EncSnapshot = std::shared_ptr<const EncList>;

  struct Packet {
    int forward_level = 0;
    EncSnapshot encs;                // indices into the rekey message; may
                                     // be null (data packets, key unicasts)
    bool group_key_unicast = false;  // Appendix-B last hop (1 encryption)
    bool leader_relay = false;       // non-leader -> leader full-message hop
    bool is_rekey = false;
  };

  using Session = Handle::Session;

  // Transmits `pkt` to the first candidate (`candidates` may be the
  // scratch_.cand buffer, which the caller may reuse immediately after the
  // call returns); on simulated loss, copies the candidates and schedules
  // RetrySend.
  void SendFirst(Session& s, const UserId* from, HostId from_host,
                 const std::vector<UserId>& candidates, Packet pkt);
  // Loss-recovery path (§2.3): transmits to the attempt-th live candidate;
  // owns its candidate list across retries.
  void RetrySend(Session& s, const UserId* from, HostId from_host,
                 std::vector<UserId> candidates, Packet pkt, int attempt);
  void Transmit(Session& s, const UserId* from, HostId from_host,
                const UserId& to, const Packet& pkt, bool lost,
                SimTime depart, SimTime tx_time);
  void Deliver(Session& s, const UserId& user, const Packet& pkt,
               HostId from_host);
  void Forward(Session& s, const UserId& user, const Packet& pkt);
  void ClusterDuty(Session& s, const UserId& user, const Packet& pkt);

  // Fig. 5's per-next-hop filter: encryptions needed within w's level-(s+1)
  // subtree, where `w_prefix` = w.ID[0:s]. Writes the surviving indices
  // into `out` (a scratch buffer; cleared first).
  void SplitFor(const Session& s, const EncList& encs,
                const DigitString& w_prefix, EncList& out);

  // Live candidates of an entry, preference-ordered: RTT order, except in
  // cluster mode at row D-2 where the earliest joiner leads (footnote 8).
  // Writes into `scratch_.cand` (cleared first).
  void CandidatesOf(const NeighborTable::Entry& entry, int row,
                    bool cluster_mode);

  // Splits the parent payload for the entry whose candidates share
  // `prefix`, sharing the parent snapshot when the filter keeps everything.
  EncSnapshot SplitSnapshot(Session& s, const EncSnapshot& parent,
                            const DigitString& prefix);

  std::size_t EncCount(const Packet& pkt) const {
    if (pkt.group_key_unicast) return 1;
    return pkt.encs == nullptr ? 0 : pkt.encs->size();
  }
  // Bytes on the wire for the uplink model (exact wire.cc sizes, summed
  // from the session's per-encryption table).
  double PacketBytes(const Session& s, const Packet& pkt) const;
  // Occupies the sender's uplink; returns {depart, tx_time}.
  std::pair<SimTime, SimTime> OccupyUplink(HostId from, double bytes);

  Handle MakeSession(const Options& opts, HostId source_host, bool is_rekey,
                     const RekeyMessage* msg);

  // Recovers the simulator behind a SimTransport so the convenience
  // MulticastRekey/MulticastData drivers (begin + drain + return) still
  // work; null for transports with no drainable event loop (UDP), where
  // callers must use the Begin* forms.
  static Simulator* SimulatorOf(Transport& transport) {
    auto* st = dynamic_cast<SimTransport*>(&transport);
    return st != nullptr ? &st->simulator() : nullptr;
  }

  const GroupView& dir_;
  std::unique_ptr<SimTransport> owned_transport_;  // convenience ctor only
  Transport& transport_;
  Simulator* drain_sim_ = nullptr;
  UplinkModel uplink_;
  std::vector<SimTime> uplink_free_;  // per host; sized when model enabled

  // Resolved metric handles ("tmesh." namespace); all null when detached,
  // so the hot path tests one pointer. Sessions share these handles — the
  // registry aggregates across concurrent sessions of this TMesh.
  struct MetricHandles {
    Counter* messages_sent = nullptr;
    Counter* messages_lost = nullptr;
    Counter* retries = nullptr;
    Counter* deliveries_failed = nullptr;
    Counter* forwards = nullptr;
    Counter* deliveries = nullptr;
    Counter* encs_sent = nullptr;
    Counter* split_messages = nullptr;
    Counter* uplink_bytes = nullptr;
    Counter* sessions = nullptr;
  };
  MetricHandles metrics_;
  MetricsRegistry* registry_ = nullptr;
  std::vector<double> metric_uplink_bytes_;  // per host since last flush
  MessageTracer* tracer_ = nullptr;
  std::int64_t next_trace_id_ = 0;

  // Forwarding-path scratch buffers, reused across hops so the no-loss
  // message path performs no heap allocation (beyond at most one payload
  // snapshot per hop when splitting actually shrinks the message). Safe
  // because Forward/SendFirst complete synchronously within one event —
  // nothing holds a scratch reference across scheduled events.
  struct Scratch {
    std::vector<UserId> cand;
    std::vector<const NeighborRecord*> live;
    EncList split;
    std::vector<LinkId> path;
  };
  Scratch scratch_;
};

}  // namespace tmesh
