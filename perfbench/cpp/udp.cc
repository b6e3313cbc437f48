// udp_loopback: a KeyServer on a UdpTransport, with the member endpoints in
// the same process on a second UdpTransport, exchanging the J/W/L/K/R frames
// of examples/multiproc_rekey.cc over the host's loopback interface. Rekey
// frames carry wire.cc-encoded rekey messages; every alive member checks
// decryption closure on every frame and every departed member checks
// forward secrecy on the frames after its leave.
//
// Threads: the driving thread (the open-loop generator) plus the two
// transports' loop threads — three in all.
//
// Open loop at a fixed rate: a 100 ms rekey interval carries 10 joins and 10
// leaves, due at seeded positions between 10 ms and 60 ms into the interval,
// so every operation lands in its interval with 40 ms to spare and batches
// are the same on every run of a seed, unless the host stalls a loop for
// longer than that. Assigned IDs depend only on the order of the requests,
// and are the same on every run of a seed. Join and leave latencies run from the due time: J until its W
// is processed, L until its K. Rekey latency runs from the interval tick's
// firing until the last member has decoded and verified the rekey frame.
// Set-up admits the 128 initial members as one burst of J frames.
//
// As in online_synthwan, the deployment (network, initial members, key
// server seed) is fixed and the benchmark seed draws the traffic.
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>

#include "common/rng.h"
#include "composed_server.h"
#include "core/key_server.h"
#include "core/wire.h"
#include "topology/synthetic_wan.h"
#include "transport/udp_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tmesh;

constexpr int kInitialMembers = 128;
constexpr int kJoins = 10;
constexpr int kLeaves = 10;
constexpr long kMaxIntervals = 1000;
constexpr double kIntervalS = 0.100;
constexpr double kFirstOpS = 0.010;  // ops are due in [10 ms, 60 ms)
constexpr double kOpWindowS = 0.050;
constexpr double kAckTimeoutS = 2.0;
// After the last tick, time for the multicasts still in flight to finish
// (one-way delays are at most a few hundred ms; T-mesh paths a few hops).
constexpr double kMulticastDrainS = 1.0;
// Set-ups take ~20 ms each; the median of many keeps setup_s steady.
constexpr int kUdpSetups = 15;
constexpr HostId kMemberBus = 0x7fff0000;  // transport identity of members
constexpr std::uint64_t kDeploymentSeed = 2005;

// --- frame codec (multiproc_rekey.cc's frames, tagged with the member) ----

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void PutDigits(std::vector<std::uint8_t>& out, const DigitString& s) {
  out.push_back(static_cast<std::uint8_t>(s.size()));
  for (int i = 0; i < s.size(); ++i) out.push_back(static_cast<std::uint8_t>(s.digit(i)));
}

struct Cursor {
  const std::uint8_t* p;
  std::size_t left;
  bool ok = true;

  std::uint32_t U32() {
    if (left < 4) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  DigitString Digits() {
    if (left < 1) {
      ok = false;
      return DigitString{};
    }
    const int n = *p++;
    --left;
    if (left < static_cast<std::size_t>(n) || n > kMaxDigits) {
      ok = false;
      return DigitString{};
    }
    DigitString s = DigitString::FromDigits(p, n);
    p += n;
    left -= static_cast<std::size_t>(n);
    return s;
  }
};

// Fixed-point decryption closure (Lemma 3): grows `held` with every key the
// holder can reach from the message. Only encryptions whose ID is a prefix
// of the member's ID can be under a key it holds, so others are skipped.
void Close(const UserId& me, std::map<KeyId, std::uint32_t>& held,
           const std::vector<Encryption>& encs) {
  for (bool progress = true; progress;) {
    progress = false;
    for (const Encryption& e : encs) {
      if (!e.enc_key_id.IsPrefixOf(me)) continue;
      auto it = held.find(e.enc_key_id);
      if (it == held.end() || it->second != e.enc_key_version) continue;
      auto have = held.find(e.new_key_id);
      if (have != held.end() && have->second >= e.new_key_version) continue;
      held[e.new_key_id] = e.new_key_version;
      progress = true;
    }
  }
}

// --- loop busy time (traced runs) -------------------------------------------

// Runs `fn`, adding its wall time to `*busy` when `busy` is non-null.
template <class Fn>
void Busy(double* busy, Fn&& fn) {
  if (busy == nullptr) return fn();
  const double t0 = NowSeconds();
  fn();
  *busy += NowSeconds() - t0;
}

// The traced key server's view of its loop: every closure the server or its
// T-mesh schedules counts as loop busy time, and T-mesh's per-hop events
// (the ScheduleAtHost path; the interval tick uses ScheduleAt) are also a
// tmesh.forward span, since on a UdpTransport they run as real-time timers
// rather than inside a simulator drain.
class TimedTransport : public Transport {
 public:
  TimedTransport(Transport& inner, Tracer* tracer, double* busy)
      : inner_(inner), tracer_(tracer), busy_(busy) {}

  SimTime Now() const override { return inner_.Now(); }
  HostId local_host() const override { return inner_.local_host(); }
  TimerId ScheduleTimer(SimTime delay, TransportClosure fn) override {
    return inner_.ScheduleTimer(delay, Wrap(std::move(fn), false));
  }
  bool CancelTimer(TimerId id) override { return inner_.CancelTimer(id); }
  using Transport::Send;
  void Send(HostId to, const std::uint8_t* data, std::size_t size) override {
    inner_.Send(to, data, size);
  }
  void OnReceive(RecvHandler handler) override {
    inner_.OnReceive(std::move(handler));
  }

 protected:
  void ScheduleClosureAt(SimTime when, TransportClosure fn) override {
    inner_.ScheduleAt(when, Wrap(std::move(fn), false));
  }
  void ScheduleClosureAtHost(HostId, SimTime when, TransportClosure fn) override {
    inner_.ScheduleAt(when, Wrap(std::move(fn), true));
  }

 private:
  TransportClosure Wrap(TransportClosure fn, bool forward) {
    return [this, forward, fn = std::move(fn)]() mutable {
      Busy(busy_, [&] {
        if (forward) {
          Traced(tracer_, Layer::kTmeshForward, [&] { fn(); });
        } else {
          fn();
        }
      });
    };
  }

  Transport& inner_;
  Tracer* tracer_;
  double* busy_;
};

// Layer spans and busy time of both loop threads.
struct LoopTotals {
  Tracer spans;
  double busy_s = 0.0;
};

// --- schedule ---------------------------------------------------------------

struct Op {
  char kind;            // 'J' or 'L'
  HostId host;          // joins: the joining host
  std::uint32_t index;  // leaves: alive-set index (mod size)
};

struct Schedule {
  std::vector<HostId> initial_hosts;
  std::vector<std::vector<Op>> intervals;
  int host_count = 0;
};

Schedule MakeSchedule(std::uint64_t seed, long intervals) {
  Schedule s;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 5);
  HostId next = 1;  // host 0 is the key server
  for (int i = 0; i < kInitialMembers; ++i) s.initial_hosts.push_back(next++);
  s.intervals.resize(static_cast<std::size_t>(intervals));
  for (auto& ops : s.intervals) {
    for (int j = 0; j < kJoins; ++j) ops.push_back({'J', next++, 0});
    for (int j = 0; j < kLeaves; ++j) {
      ops.push_back({'L', kNoHost, static_cast<std::uint32_t>(rng.engine()())});
    }
    rng.Shuffle(ops);
  }
  s.host_count = next;
  return s;
}

// --- member side (runs on the member transport's loop thread) --------------

struct MemberState {
  UserId id;
  std::map<KeyId, std::uint32_t> held;
  bool departed = false;
  long secrecy_from = -1;  // first frame index the leave must lock out
  int secrecy_checked = 0;
};

// Everything the member loop thread owns. The generator thread only reads
// it through the mutex-guarded counters, and after the loops have stopped.
struct Members {
  std::mutex mu;
  std::condition_variable cv;
  long acks = 0;               // W and K frames processed (mu)
  long frames_verified = -1;   // index of the last verified frame (mu)

  std::map<HostId, MemberState> state;
  std::map<HostId, double> due;  // pending op due times (steady seconds)
  std::vector<double> join_ms, leave_ms;
  std::map<long, double> frame_done;  // frame index -> verification time
  std::map<long, std::uint32_t> frame_root;
  long next_frame = 0;
  std::vector<std::string> errors;
  long failures = 0;
  Tracer tracer;
  double busy_s = 0.0;  // member loop time in callbacks (traced runs)

  void Fail(const std::string& why) {
    ++failures;
    if (errors.size() < 8) errors.push_back(why);
  }
};

// --- one complete system ----------------------------------------------------

template <class Server>
class UdpWorld {
 public:
  UdpWorld(const Schedule& s, bool traced)
      : traced_(traced),
        server_bus_(UdpTransport::Options{.host = 0}),
        member_bus_(UdpTransport::Options{.host = kMemberBus}),
        timed_bus_(server_bus_, ServerTracer(), ServerBusy()) {
    SyntheticWanParams np;
    np.seed = kDeploymentSeed;
    np.hosts = s.host_count;
    np.sites = kInitialMembers / 16;  // ~16 live members a site
    net_ = Traced(traced ? &server_tracer_ : nullptr, Layer::kTopologyBuild,
                  [&] { return std::make_unique<SyntheticWanNetwork>(np); });
    KeyServer::Config cfg;
    cfg.net = net_.get();
    cfg.server_host = 0;
    cfg.rekey_interval = FromSeconds(kIntervalS);
    cfg.split = true;
    cfg.seed = kDeploymentSeed;
    cfg.rekey_shards = 1;
    if constexpr (std::is_same_v<Server, ComposedKeyServer>) {
      server_ = std::make_unique<Server>(timed_bus_, cfg, ServerTracer());
      server_->SetMetrics(&registry_);
    } else {
      server_ = std::make_unique<Server>(server_bus_, cfg);
    }
    member_bus_.AddPeer(0, server_bus_.port());
    server_bus_.OnReceive(
        [this](HostId from, const std::uint8_t* d, std::size_t n) {
          Busy(ServerBusy(), [&] { ServerReceive(from, d, n); });
        });
    server_->SetIntervalHandler(
        [this](const KeyServer::IntervalRecord& rec) { OnInterval(rec); });
    member_bus_.OnReceive(
        [this](HostId from, const std::uint8_t* d, std::size_t n) {
          Busy(MemberBusy(), [&] { MemberReceive(from, d, n); });
        });
    server_bus_.Start();
    member_bus_.Start();
  }

  ~UdpWorld() { Shutdown(); }

  // Stops both loops (closures still queued are destroyed unrun). After
  // this, every field is safe to read from the calling thread.
  void Shutdown() {
    member_bus_.Stop();
    server_bus_.Stop();
  }

  // Posts a closure to a loop thread and waits for it to run.
  template <class Fn>
  void RunOn(UdpTransport& bus, Fn&& fn) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bus.ScheduleIn(0, [&] {
      fn();
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }

  // Sends member `host`'s join or leave at the member loop, stamping its
  // due time.
  void Post(char kind, HostId host, double due) {
    member_bus_.ScheduleIn(0, [this, kind, host, due] {
      Busy(MemberBusy(), [&] { SendRequest(kind, host, due); });
    });
  }

  // Starts the server's interval clock; returns the steady time the first
  // tick is due at.
  double StartServer() {
    double first_due = 0.0;
    RunOn(server_bus_, [&] {
      first_due = NowSeconds() + kIntervalS;
      server_->Start();
    });
    return first_due;
  }
  void StopServer() {
    RunOn(server_bus_, [&] { server_->Stop(); });
  }

  // Blocks until `acks` W/K frames and frame `frame` have been processed,
  // or the timeout passes. Returns false on timeout.
  bool WaitFor(long acks, long frame, double timeout_s) {
    std::unique_lock<std::mutex> lock(members_.mu);
    return members_.cv.wait_for(
        lock, std::chrono::duration<double>(timeout_s),
        [&] { return members_.acks >= acks && members_.frames_verified >= frame; });
  }

  // Span and busy totals so far, each read on its own loop thread.
  LoopTotals Totals() {
    LoopTotals t;
    RunOn(server_bus_, [&] {
      t.spans.MergeFrom(server_tracer_);
      t.busy_s += server_busy_s_;
    });
    RunOn(member_bus_, [&] {
      t.spans.MergeFrom(members_.tracer);
      t.busy_s += members_.busy_s;
    });
    return t;
  }

  Members& members() { return members_; }
  UdpTransport& server_bus() { return server_bus_; }
  UdpTransport& member_bus() { return member_bus_; }
  Tracer& server_tracer() { return server_tracer_; }
  MetricsRegistry& registry() { return registry_; }
  const Server& server() const { return *server_; }
  const std::vector<std::size_t>& frame_bytes() const { return frame_bytes_; }
  const std::vector<double>& tick_fired() const { return tick_fired_; }
  long server_failures() const { return server_failures_; }

 private:
  Tracer* ServerTracer() { return traced_ ? &server_tracer_ : nullptr; }
  double* ServerBusy() { return traced_ ? &server_busy_s_ : nullptr; }
  double* MemberBusy() { return traced_ ? &members_.busy_s : nullptr; }

  // Member loop: stamps the due time and sends member `host`'s J or L.
  void SendRequest(char kind, HostId host, double due) {
    members_.due[host] = due;
    std::vector<std::uint8_t> f{static_cast<std::uint8_t>(kind)};
    PutU32(f, static_cast<std::uint32_t>(host));
    if (kind == 'L') {
      auto it = members_.state.find(host);
      if (it == members_.state.end()) {
        members_.Fail("leave of a member that never joined");
        return;
      }
      it->second.departed = true;
    }
    Traced(traced_ ? &members_.tracer : nullptr, Layer::kUdpSend,
           [&] { member_bus_.Send(0, f); });
  }

  void ServerSend(const std::vector<std::uint8_t>& f) {
    Traced(ServerTracer(), Layer::kUdpSend,
           [&] { server_bus_.Send(kMemberBus, f); });
  }

  void ServerReceive(HostId from, const std::uint8_t* data, std::size_t size) {
    if (from != kMemberBus || size == 0) return;
    Cursor c{data + 1, size - 1};
    const HostId host = static_cast<HostId>(c.U32());
    if (!c.ok) return;
    if (data[0] == 'J') {
      std::vector<std::uint8_t> w;
      std::optional<UserId> id = server_->RequestJoin(host);
      if (!id.has_value()) {
        w = {'X'};
        PutU32(w, static_cast<std::uint32_t>(host));
      } else {
        roster_[host] = *id;
        w = {'W'};
        PutU32(w, static_cast<std::uint32_t>(host));
        PutDigits(w, *id);
        PutU32(w, static_cast<std::uint32_t>(rekey_frames_));
        const std::vector<KeyId> keys = server_->key_tree().KeysOf(*id);
        PutU32(w, static_cast<std::uint32_t>(keys.size()));
        for (const KeyId& k : keys) {
          PutDigits(w, k);
          PutU32(w, server_->key_tree().KeyVersion(k));
        }
      }
      ServerSend(w);
    } else if (data[0] == 'L') {
      auto it = roster_.find(host);
      if (it == roster_.end()) {
        ++server_failures_;
        return;
      }
      server_->RequestLeave(it->second);
      roster_.erase(it);
      std::vector<std::uint8_t> k{'K'};
      PutU32(k, static_cast<std::uint32_t>(host));
      PutU32(k, static_cast<std::uint32_t>(rekey_frames_));
      ServerSend(k);
    }
  }

  void OnInterval(const KeyServer::IntervalRecord& rec) {
    if (rec.delivery < 0) return;
    // rec.when is the server clock when the tick fired; map it to steady.
    tick_fired_.push_back(NowSeconds() - ToMillis(server_bus_.Now() - rec.when) / 1e3);
    std::vector<std::uint8_t> r{'R'};
    PutU32(r, static_cast<std::uint32_t>(rekey_frames_));
    PutU32(r, server_->group_key_version());
    const std::vector<std::uint8_t> bytes = Traced(
        ServerTracer(), Layer::kWireEncode,
        [&] { return EncodeRekeyMessage(server_->message(rec.delivery)); });
    frame_bytes_.push_back(bytes.size());
    r.insert(r.end(), bytes.begin(), bytes.end());
    ServerSend(r);
    ++rekey_frames_;
  }

  void MemberReceive(HostId from, const std::uint8_t* data, std::size_t size) {
    if (from != 0 || size == 0) return;
    const double now = NowSeconds();
    Members& m = members_;
    Cursor c{data + 1, size - 1};
    switch (data[0]) {
      case 'W':
      case 'X':
      case 'K': {
        const HostId host = static_cast<HostId>(c.U32());
        auto due = m.due.find(host);
        if (!c.ok || due == m.due.end()) {
          m.Fail("unsolicited reply");
          return;
        }
        const double ms = (now - due->second) * 1e3;
        m.due.erase(due);
        if (data[0] == 'X') {
          m.Fail("join refused");
        } else if (data[0] == 'W') {
          MemberState st;
          st.id = c.Digits();
          (void)c.U32();  // frames sent before this join
          const std::uint32_t n = c.U32();
          for (std::uint32_t i = 0; c.ok && i < n; ++i) {
            const KeyId k = c.Digits();
            const std::uint32_t ver = c.U32();
            if (c.ok) st.held[k] = ver;
          }
          if (!c.ok) m.Fail("malformed welcome");
          m.state[host] = std::move(st);
          m.join_ms.push_back(ms);
        } else {
          const std::uint32_t r_seen = c.U32();
          auto it = m.state.find(host);
          if (c.ok && it != m.state.end()) it->second.secrecy_from = r_seen;
          m.leave_ms.push_back(ms);
        }
        std::lock_guard<std::mutex> lock(m.mu);
        ++m.acks;
        m.cv.notify_all();
        return;
      }
      case 'R': {
        const long index = c.U32();
        const std::uint32_t root_ver = c.U32();
        Tracer* tr = traced_ ? &m.tracer : nullptr;
        std::optional<RekeyMessage> msg = Traced(tr, Layer::kWireDecode, [&] {
          return DecodeRekeyMessage(std::vector<std::uint8_t>(c.p, c.p + c.left));
        });
        if (!c.ok || !msg.has_value()) {
          m.Fail("undecodable rekey frame");
          return;
        }
        if (index != m.next_frame) m.Fail("rekey frame gap");
        m.next_frame = index + 1;
        Traced(tr, Layer::kMemberVerify, [&] {
          for (auto& [host, st] : m.state) {
            if (st.departed && (st.secrecy_from < 0 || index < st.secrecy_from ||
                                st.secrecy_checked >= 2)) {
              continue;
            }
            Close(st.id, st.held, msg->encryptions);
            const auto root = st.held.find(KeyId{});
            const bool reaches = root != st.held.end() && root->second >= root_ver;
            if (st.departed) {
              ++st.secrecy_checked;
              if (reaches) m.Fail("forward secrecy breached");
            } else if (!reaches) {
              m.Fail("decryption closure failed");
            }
          }
        });
        m.frame_root[index] = root_ver;
        m.frame_done[index] = NowSeconds();
        std::lock_guard<std::mutex> lock(m.mu);
        m.frames_verified = index;
        m.cv.notify_all();
        return;
      }
      default:
        m.Fail("unknown frame");
    }
  }

  const bool traced_;
  Tracer server_tracer_;
  double server_busy_s_ = 0.0;  // server loop time in callbacks (traced runs)
  MetricsRegistry registry_;
  std::unique_ptr<SyntheticWanNetwork> net_;
  // Transports before the server: the server holds a reference to its bus
  // and must be destroyed first.
  UdpTransport server_bus_;
  UdpTransport member_bus_;
  TimedTransport timed_bus_;  // the traced server's view of server_bus_
  std::unique_ptr<Server> server_;
  std::map<HostId, UserId> roster_;  // server loop only
  long rekey_frames_ = 0;            // server loop only
  std::vector<std::size_t> frame_bytes_;  // server loop only
  std::vector<double> tick_fired_;        // per frame, steady seconds
  long server_failures_ = 0;
  Members members_;
};

// Admits the initial members as one burst: every J is posted at once and
// the server answers them back to back, in order. (Round trips one at a time
// would mostly time how fast idle threads wake up.)
template <class Server>
void Admit(UdpWorld<Server>& w, const Schedule& s, RunResult& r) {
  const double due = NowSeconds();
  for (HostId h : s.initial_hosts) {
    ++r.attempted;
    w.Post('J', h, due);
  }
  if (!w.WaitFor(kInitialMembers, -1, kAckTimeoutS)) r.Fail("set-up joins timed out");
}

// Theorem 1 on the key server's own split rekey multicasts, which run on
// the server loop as T-mesh timers. Checked: no abandoned send and nobody
// with two copies. Counted, not failed: members alive from the tick to the
// end of the run that got no copy. Leaves keep arriving while a multicast
// is in flight, and T-mesh drops a copy that reaches a departed member, so
// the members it would have forwarded to miss it; with no leaves in the
// schedule every such member gets exactly one copy. `joined_at`/`left_at`
// give each host's join and leave interval (0 for set-up members; a host
// never rejoins).
template <class Server>
void CheckMulticasts(const Server& server, const std::vector<long>& joined_at,
                     const std::vector<long>& left_at, long last, RunResult& r) {
  long owed = 0, missed = 0;
  const auto& history = server.history();
  for (std::size_t k = 0; k < history.size(); ++k) {
    if (history[k].delivery < 0) continue;
    const TMesh::Result& res = server.delivery(history[k].delivery);
    const long tick = std::min(static_cast<long>(k), last);
    ++r.attempted;
    long wrong = res.deliveries_failed;
    for (std::size_t h = 0; h < joined_at.size(); ++h) {
      const int copies = h < res.member.size() ? res.member[h].copies : 0;
      if (copies > 1) ++wrong;
      if (joined_at[h] >= 0 && joined_at[h] <= tick && left_at[h] > last) {
        ++owed;
        if (copies == 0) ++missed;
      }
    }
    if (wrong != 0) {
      r.Fail("rekey multicast " + std::to_string(k) + ": " +
             std::to_string(wrong) + " abandoned sends or duplicate copies");
    }
  }
  r.detail["tmesh_owed_copies"] = static_cast<double>(owed);
  r.detail["tmesh_missed_copies"] = static_cast<double>(missed);
}

template <class Server>
RunResult Run(const RunOptions& o, const Schedule& s) {
  RunResult r;
  std::unique_ptr<UdpWorld<Server>> w;
  if (!o.traced) {
    std::vector<double> setup;
    for (int i = 0; i < kUdpSetups; ++i) {
      w.reset();
      const double t0 = NowSeconds();
      w = std::make_unique<UdpWorld<Server>>(s, false);
      Admit(*w, s, r);
      setup.push_back(NowSeconds() - t0);
    }
    r.e2e["setup_s"] = Median(setup);
    r.detail["setup_samples"] = static_cast<double>(setup.size());
  } else {
    w = std::make_unique<UdpWorld<Server>>(s, true);
    Admit(*w, s, r);
  }

  // Tick n is due at first_due + n * interval and produces frame n; tick 0
  // rekeys the set-up batch, tick k ends measured interval k.
  ++r.attempted;
  const double first_due = w->StartServer();
  if (!w->WaitFor(kInitialMembers, 0, kIntervalS + kAckTimeoutS)) {
    r.Fail("set-up rekey frame missing");
  }

  std::vector<long> joined_at(static_cast<std::size_t>(s.host_count), -1);
  std::vector<long> left_at(static_cast<std::size_t>(s.host_count), kMaxIntervals + 1);
  for (HostId h : s.initial_hosts) joined_at[static_cast<std::size_t>(h)] = 0;
  std::vector<double> late_ms;
  std::vector<HostId> alive(s.initial_hosts);
  std::vector<HostId> joined_last;
  long acks = kInitialMembers;
  const LoopTotals before = o.traced ? w->Totals() : LoopTotals{};
  const double start = NowSeconds();
  long k = 1;
  for (; k <= static_cast<long>(s.intervals.size()) && StepsLeft(o, k - 1, start);
       ++k) {
    // Interval k-1's joins become eligible to leave once acknowledged.
    if (!w->WaitFor(acks, -1, kAckTimeoutS)) {
      r.Fail("interval " + std::to_string(k - 1) + " ops unacknowledged");
    }
    alive.insert(alive.end(), joined_last.begin(), joined_last.end());
    joined_last.clear();
    const double base = first_due + static_cast<double>(k - 1) * kIntervalS;
    const std::vector<Op>& ops = s.intervals[static_cast<std::size_t>(k - 1)];
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const double due = base + kFirstOpS + kOpWindowS * static_cast<double>(j) /
                                                static_cast<double>(ops.size());
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(due))));
      late_ms.push_back((NowSeconds() - due) * 1e3);
      ++r.attempted;
      ++acks;
      if (ops[j].kind == 'J') {
        w->Post('J', ops[j].host, due);
        joined_last.push_back(ops[j].host);
        joined_at[static_cast<std::size_t>(ops[j].host)] = k;
      } else {
        const std::size_t i = ops[j].index % alive.size();
        const HostId victim = alive[i];
        alive[i] = alive.back();
        alive.pop_back();
        w->Post('L', victim, due);
        left_at[static_cast<std::size_t>(victim)] = k;
      }
    }
    ++r.attempted;  // the interval's rekey frame
    ++r.steps;
  }
  // Wait for the last interval's replies and its rekey frame.
  if (!w->WaitFor(acks, r.steps, kIntervalS + kAckTimeoutS)) {
    r.Fail("final replies or rekey frame missing");
  }
  r.measured_s = NowSeconds() - start;
  const LoopTotals after = o.traced ? w->Totals() : LoopTotals{};
  // No more ticks; let the multicasts still in flight reach every member.
  w->StopServer();
  std::this_thread::sleep_for(std::chrono::duration<double>(kMulticastDrainS));
  w->Shutdown();

  // Everything below reads state the stopped loops owned.
  Members& m = w->members();
  r.failed += m.failures + w->server_failures();
  r.errors.insert(r.errors.end(), m.errors.begin(), m.errors.end());
  const std::uint64_t dropped = w->server_bus().datagrams_dropped() +
                                w->member_bus().datagrams_dropped();
  if (dropped != 0) r.Fail(std::to_string(dropped) + " datagrams dropped");
  CheckMulticasts(w->server(), joined_at, left_at, r.steps, r);

  std::vector<double> join_ms = m.join_ms, leave_ms = m.leave_ms, rekey_ms;
  // Rekey latency runs from the tick's firing; how late the transport fired
  // it (its epoll timeout has 1 ms granularity, and the phase of that
  // rounding is fixed per run) is reported on its own.
  std::vector<double> tick_late_ms;
  for (long n = 1; n <= r.steps; ++n) {
    auto done = m.frame_done.find(n);
    if (done == m.frame_done.end() ||
        n >= static_cast<long>(w->tick_fired().size())) {
      continue;
    }
    const double fired = w->tick_fired()[static_cast<std::size_t>(n)];
    rekey_ms.push_back((done->second - fired) * 1e3);
    tick_late_ms.push_back(
        (fired - (first_due + static_cast<double>(n) * kIntervalS)) * 1e3);
  }
  // Digest: IDs in join order (schedule order), then every frame's group-key
  // version. Not the frames' costs: an operation the host stalls past its
  // interval's tick moves into the next batch, which changes two frames'
  // costs but no ID and no version. Members check every frame's contents.
  for (HostId h : s.initial_hosts) r.digest.Add(m.state[h].id.Hash());
  for (long n = 0; n < r.steps; ++n) {
    for (const Op& op : s.intervals[static_cast<std::size_t>(n)]) {
      if (op.kind == 'J') r.digest.Add(m.state[op.host].id.Hash());
    }
  }
  for (long n = 0; n <= r.steps; ++n) r.digest.Add(m.frame_root[n]);

  r.e2e["step_ms_p10"] = Percentile(rekey_ms, 10);
  r.detail["ops_per_s"] =
      static_cast<double>(m.join_ms.size() + m.leave_ms.size() + rekey_ms.size() -
                          kInitialMembers) /
      r.measured_s;
  r.Describe("join_ms", join_ms, 99);
  r.Describe("leave_ms", leave_ms, 99);
  r.Describe("rekey_ms", rekey_ms, 90);
  r.detail["gen_late_ms_p99"] = Percentile(late_ms, 99);
  r.detail["tick_late_ms_p50"] = Percentile(tick_late_ms, 50);
  r.detail["datagrams_sent"] = static_cast<double>(
      w->server_bus().datagrams_sent() + w->member_bus().datagrams_sent());

  if constexpr (std::is_same_v<Server, ComposedKeyServer>) {  // traced
    Tracer& st = w->server_tracer();
    const ComposedKeyServer& srv = w->server();
    const double frames = std::max<double>(1.0, static_cast<double>(w->frame_bytes().size()));
    double bytes = 0.0;
    for (std::size_t b : w->frame_bytes()) bytes += static_cast<double>(b);
    const double sends = static_cast<double>(st.calls(Layer::kUdpSend) +
                                             m.tracer.calls(Layer::kUdpSend));
    auto& L = r.layers;
    L["topology.build_s"] = st.seconds(Layer::kTopologyBuild);
    L["wire.encode_us"] = st.seconds(Layer::kWireEncode) / frames * 1e6;
    L["wire.decode_us"] = m.tracer.seconds(Layer::kWireDecode) / frames * 1e6;
    L["wire.bytes_per_rekey"] = bytes / frames;
    L["udp.send_us"] = (st.seconds(Layer::kUdpSend) + m.tracer.seconds(Layer::kUdpSend)) /
                       std::max(1.0, sends) * 1e6;
    L["udp.datagrams_sent"] = r.detail["datagrams_sent"];
    L["udp.datagrams_dropped"] = static_cast<double>(dropped);
    L["gen.late_ms_p99"] = r.detail["gen_late_ms_p99"];
    // Server-side layers cover the set-up joins too; per-op figures are
    // averages over every join, leave and rekey the server handled.
    const double joins = std::max(1.0, static_cast<double>(srv.joins()));
    const double leaves = std::max(1.0, static_cast<double>(srv.leaves()));
    const double rekeys = std::max(1.0, static_cast<double>(srv.rekeys()));
    L["id_assignment.us_per_join"] = st.seconds(Layer::kIdAssign) / joins * 1e6;
    L["id_assignment.queries_per_join"] =
        static_cast<double>(srv.id_queries()) / joins;
    L["id_assignment.rtt_probes_per_join"] =
        static_cast<double>(srv.id_probes()) / joins;
    L["directory.add_us_per_join"] = st.seconds(Layer::kDirAdd) / joins * 1e6;
    L["directory.remove_us_per_leave"] = st.seconds(Layer::kDirRemove) / leaves * 1e6;
    L["directory.admission_work_per_op"] =
        static_cast<double>(AdmissionWork(srv.directory().op_stats())) /
        (joins + leaves);
    L["clusters.us_per_op"] = st.seconds(Layer::kClusters) / (joins + leaves) * 1e6;
    L["mtree.rekey_ms_per_epoch"] = st.seconds(Layer::kMtreeRekey) / rekeys * 1e3;
    L["mtree.encryptions_per_rekey"] = srv.rekey_encryptions() / rekeys;
    // No simulator here: T-mesh's forwarding events run as transport timers
    // (the tmesh.forward span).
    FillTmeshLayers(r, st, w->registry(), 0, frames, frames);
    // The loop threads do the work of the open loop; the generator mostly
    // sleeps. Coverage is their measured-phase spans over their
    // measured-phase busy time (every callback they ran).
    r.spans = after.spans.Since(before.spans);
    r.coverage_base_s = after.busy_s - before.busy_s;
    r.detail["loop_busy_s"] = r.coverage_base_s;
  }
  return r;
}

}  // namespace

RunResult RunUdp(const RunOptions& o) {
  const Schedule s = MakeSchedule(o.seed, o.steps > 0 ? o.steps : kMaxIntervals);
  return o.traced ? Run<ComposedKeyServer>(o, s) : Run<KeyServer>(o, s);
}

}  // namespace perfbench
