// Conformance suite for the Transport contract (transport/transport.h),
// run against BOTH implementations of the seam:
//
//   * SimTransport over a SimFabric (fixed-delay datagram plane) on the
//     discrete-event simulator, and
//   * UdpTransport endpoints exchanging real datagrams over 127.0.0.1.
//
// The typed tests pin the portable contract — deadline-then-FIFO timer
// ordering (plain and host-tagged schedules alike), clock monotonicity at
// fire time, self-send loopback, payload integrity for wire.cc frames, and
// CancelTimer semantics — so protocol code written against Transport
// behaves identically on the simulator and on the wall clock.
//
// The SimByteIdentity suite pins the stronger, simulator-only guarantee
// the whole repo leans on: SimTransport delegates scheduling 1:1 to
// Simulator::ScheduleAt, consuming the same (time, sequence) assignments,
// so code refactored from `Simulator&` onto `Transport&` reproduces its
// pre-refactor event history byte-for-byte. It reuses the scripted golden
// and the self-driving randomized workload of simulator_determinism_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/wire.h"
#include "sim/simulator.h"
#include "transport/sim_transport.h"
#include "transport/udp_transport.h"

namespace tmesh {
namespace {

// --- harnesses ------------------------------------------------------------
//
// Each harness owns two endpoints (hosts 1 and 2) that can reach each other
// and themselves, plus WaitUntil(pred): drive the runtime until pred() holds
// or the workload is exhausted. Predicates and callbacks must guard shared
// state with State::mu — under UDP they run on the loop threads.

struct State {
  std::mutex mu;
  std::vector<int> order;                  // timer firing tags
  std::vector<SimTime> fire_now;           // Now() observed inside callbacks
  std::vector<HostId> from;                // datagram sources
  std::vector<std::vector<std::uint8_t>> payloads;

  std::function<void()> Hit(int tag) {
    return [this, tag] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    };
  }
  std::size_t OrderSize() {
    std::lock_guard<std::mutex> lock(mu);
    return order.size();
  }
};

class SimHarness {
 public:
  SimHarness() : fabric_(sim_, FromMillis(5)), a_(fabric_, 1), b_(fabric_, 2) {}

  Transport& a() { return a_; }
  Transport& b() { return b_; }

  bool WaitUntil(const std::function<bool()>& pred) {
    if (pred()) return true;
    while (sim_.Step()) {
      if (pred()) return true;
    }
    return pred();
  }

 private:
  Simulator sim_;
  SimFabric fabric_;
  SimTransport a_;
  SimTransport b_;
};

class UdpHarness {
 public:
  UdpHarness()
      : a_(UdpTransport::Options{.host = 1}),
        b_(UdpTransport::Options{.host = 2}) {
    a_.AddPeer(1, a_.port());
    a_.AddPeer(2, b_.port());
    b_.AddPeer(1, a_.port());
    b_.AddPeer(2, b_.port());
    a_.Start();
    b_.Start();
  }
  ~UdpHarness() {
    a_.Stop();
    b_.Stop();
  }

  Transport& a() { return a_; }
  Transport& b() { return b_; }

  // Polls for up to 30 s of wall time (CI machines stall; the workloads
  // themselves complete in tens of milliseconds).
  bool WaitUntil(const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }

 private:
  UdpTransport a_;
  UdpTransport b_;
};

template <class Harness>
class TransportConformanceTest : public ::testing::Test {
 protected:
  Harness h_;
  State st_;
};

using Harnesses = ::testing::Types<SimHarness, UdpHarness>;
TYPED_TEST_SUITE(TransportConformanceTest, Harnesses);

// --- timer ordering -------------------------------------------------------

TYPED_TEST(TransportConformanceTest, SameDeadlineTimersFireInScheduleOrder) {
  Transport& t = this->h_.a();
  State& st = this->st_;
  // One base deadline far enough out that every schedule call lands before
  // it even on a wall clock; three exact ties at base and three at
  // base + 5 ms. Host-tagged schedules (T-mesh's per-hop path) interleave
  // with plain ones and must join the same (deadline, FIFO) order, whatever
  // host they name.
  const SimTime base = t.Now() + FromMillis(50);
  t.ScheduleAt(base + FromMillis(5), st.Hit(0));
  t.ScheduleAtHost(2, base, st.Hit(1));
  t.ScheduleAt(base + FromMillis(5), st.Hit(2));           // tie with 0
  t.ScheduleAt(base, st.Hit(3));                           // tie with 1
  t.ScheduleAtHost(1, base + FromMillis(5), st.Hit(5));    // tie with 0, 2
  t.ScheduleAtHost(t.local_host(), base, st.Hit(6));       // tie with 1, 3
  t.ScheduleIn(0, st.Hit(4));                              // fires first
  ASSERT_TRUE(this->h_.WaitUntil([&] { return st.OrderSize() == 7; }));
  std::lock_guard<std::mutex> lock(st.mu);
  EXPECT_EQ(st.order, (std::vector<int>{4, 1, 3, 6, 0, 2, 5}));
}

TYPED_TEST(TransportConformanceTest, CallbacksObserveNowAtOrAfterDeadline) {
  Transport& t = this->h_.a();
  State& st = this->st_;
  const SimTime t0 = t.Now();
  const SimTime deadlines[] = {t0 + FromMillis(1), t0 + FromMillis(10),
                               t0 + FromMillis(20)};
  for (SimTime d : deadlines) {
    t.ScheduleAt(d, [&st, &t] {
      std::lock_guard<std::mutex> lock(st.mu);
      st.fire_now.push_back(t.Now());
      st.order.push_back(0);
    });
  }
  ASSERT_TRUE(this->h_.WaitUntil([&] { return st.OrderSize() == 3; }));
  std::lock_guard<std::mutex> lock(st.mu);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(st.fire_now[static_cast<std::size_t>(i)], deadlines[i])
        << "timer " << i << " fired before its deadline";
  }
  // The clock itself never runs backwards across callbacks.
  EXPECT_TRUE(std::is_sorted(st.fire_now.begin(), st.fire_now.end()));
}

// --- datagram plane -------------------------------------------------------

TYPED_TEST(TransportConformanceTest, SelfSendLoopsBackThroughReceivePath) {
  Transport& t = this->h_.a();
  State& st = this->st_;
  t.OnReceive([&st](HostId from, const std::uint8_t* data, std::size_t size) {
    std::lock_guard<std::mutex> lock(st.mu);
    st.from.push_back(from);
    st.payloads.emplace_back(data, data + size);
  });
  const std::vector<std::uint8_t> payload = {0x01, 0x7f, 0x80, 0xff, 0x00};
  t.Send(t.local_host(), payload);
  ASSERT_TRUE(this->h_.WaitUntil([&] {
    std::lock_guard<std::mutex> lock(st.mu);
    return !st.payloads.empty();
  }));
  std::lock_guard<std::mutex> lock(st.mu);
  EXPECT_EQ(st.from[0], t.local_host());
  EXPECT_EQ(st.payloads[0], payload);
}

TYPED_TEST(TransportConformanceTest, PeerSendDeliversWireFrameIntact) {
  Transport& a = this->h_.a();
  Transport& b = this->h_.b();
  State& st = this->st_;
  b.OnReceive([&st](HostId from, const std::uint8_t* data, std::size_t size) {
    std::lock_guard<std::mutex> lock(st.mu);
    st.from.push_back(from);
    st.payloads.emplace_back(data, data + size);
  });

  // A real protocol payload: a wire.cc rekey message, encoded by the
  // sender, decoded by the receiver, field-for-field identical.
  RekeyMessage msg;
  Encryption e1;
  e1.enc_key_id = KeyId{2, 0};
  e1.new_key_id = KeyId{2};
  e1.new_key_version = 7;
  e1.enc_key_version = 3;
  Encryption e2;
  e2.enc_key_id = KeyId{255, 0, 255, 1, 9};
  e2.new_key_id = KeyId{255, 0, 255, 1};
  e2.new_key_version = 42;
  e2.enc_key_version = 41;
  msg.encryptions = {e1, e2};
  a.Send(b.local_host(), EncodeRekeyMessage(msg));

  ASSERT_TRUE(this->h_.WaitUntil([&] {
    std::lock_guard<std::mutex> lock(st.mu);
    return !st.payloads.empty();
  }));
  std::lock_guard<std::mutex> lock(st.mu);
  EXPECT_EQ(st.from[0], a.local_host());
  auto decoded = DecodeRekeyMessage(st.payloads[0]);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->encryptions.size(), 2u);
  EXPECT_EQ(decoded->encryptions[0], e1);
  EXPECT_EQ(decoded->encryptions[1], e2);
}

// --- cancellable timers ---------------------------------------------------

TYPED_TEST(TransportConformanceTest, CancelTimerSemantics) {
  Transport& t = this->h_.a();
  State& st = this->st_;
  std::atomic<bool> victim_ran{false};
  const TimerId victim =
      t.ScheduleTimer(FromMillis(40), [&] { victim_ran = true; });
  const TimerId keeper = t.ScheduleTimer(FromMillis(5), st.Hit(1));
  EXPECT_NE(victim, kNoTimer);
  EXPECT_NE(keeper, victim);

  EXPECT_TRUE(t.CancelTimer(victim));    // live: cancel succeeds...
  EXPECT_FALSE(t.CancelTimer(victim));   // ...exactly once
  EXPECT_FALSE(t.CancelTimer(kNoTimer));  // never a real timer

  ASSERT_TRUE(this->h_.WaitUntil([&] { return st.OrderSize() == 1; }));
  EXPECT_FALSE(t.CancelTimer(keeper));  // already fired

  // A marker past the victim's deadline proves its closure never ran.
  t.ScheduleIn(FromMillis(80), st.Hit(2));
  ASSERT_TRUE(this->h_.WaitUntil([&] { return st.OrderSize() == 2; }));
  EXPECT_FALSE(victim_ran.load());
}

// Cancelling must *release* the closure, not just suppress it: protocol
// closures own resources (buffers, handles), and a transport that pins a
// cancelled closure to its original deadline — or to the transport's
// destructor — turns every retry-timer cancel into a slow leak. By the time
// a marker past the victim's deadline has fired, the resource must be gone.
// (The asan preset runs this suite, so a closure destroyed twice or never
// would also surface here.)
TYPED_TEST(TransportConformanceTest, CancelledClosureIsReleasedNotRetained) {
  Transport& t = this->h_.a();
  State& st = this->st_;
  std::atomic<bool> victim_ran{false};
  auto resource = std::make_shared<int>(42);
  std::weak_ptr<int> watch = resource;
  const TimerId victim = t.ScheduleTimer(
      FromMillis(30), [r = std::move(resource), &victim_ran] {
        victim_ran = *r == 42;
      });
  EXPECT_TRUE(t.CancelTimer(victim));

  t.ScheduleIn(FromMillis(60), st.Hit(1));
  ASSERT_TRUE(this->h_.WaitUntil([&] { return st.OrderSize() == 1; }));
  EXPECT_FALSE(victim_ran.load());
  EXPECT_TRUE(watch.expired()) << "cancelled closure still holds its capture";
}

// --- UDP timer lifecycle (wall-clock transport only) ----------------------
//
// These pin behavior the simulator transport cannot exhibit: the UDP loop
// sleeps on its heap front's deadline, and Stop()/Start() restart the loop
// thread. SimTransport has neither a wall-clock sleep nor a lifecycle, so
// the suite is not typed.

// Cancelling the timer at the heap front must release its closure right
// away — before the fix, the heap entry (and the epoll sleep computed from
// it) survived until the dead deadline, here a minute out.
TEST(UdpTimerLifecycle, CancelAtHeapFrontReleasesClosureImmediately) {
  UdpTransport t(UdpTransport::Options{.host = 1});
  t.Start();
  auto resource = std::make_shared<int>(7);
  std::weak_ptr<int> watch = resource;
  const TimerId far = t.ScheduleTimer(FromMillis(60'000),
                                      [r = std::move(resource)] { (void)*r; });
  EXPECT_TRUE(t.CancelTimer(far));
  // No waiting: the front purge happens inside CancelTimer itself.
  EXPECT_TRUE(watch.expired());

  // The loop is no longer armed against the dead deadline: a fresh short
  // timer fires promptly.
  std::atomic<bool> fresh_ran{false};
  t.ScheduleTimer(FromMillis(5), [&fresh_ran] { fresh_ran = true; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!fresh_ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fresh_ran.load());
  t.Stop();
}

// The header's Stop() contract ("closures still queued at Stop() are
// destroyed without running") plus clean restart: a second Start() must not
// fire the previous life's timers, and their ids stay retired.
TEST(UdpTimerLifecycle, StopDestroysQueuedTimersAndRestartIsClean) {
  UdpTransport t(UdpTransport::Options{.host = 1});
  t.Start();
  std::atomic<bool> stale_ran{false};
  auto resource = std::make_shared<int>(1);
  std::weak_ptr<int> watch = resource;
  const TimerId stale = t.ScheduleTimer(
      FromMillis(200),
      [r = std::move(resource), &stale_ran] { stale_ran = *r == 1; });
  t.Stop();
  EXPECT_FALSE(stale_ran.load());
  EXPECT_TRUE(watch.expired()) << "Stop() retained a queued closure";

  t.Start();
  EXPECT_FALSE(t.CancelTimer(stale));  // retired with its closure
  std::atomic<bool> fresh_ran{false};
  t.ScheduleTimer(FromMillis(5), [&fresh_ran] { fresh_ran = true; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!fresh_ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fresh_ran.load());
  // Sit past the stale deadline (200 ms from the first Start) to prove the
  // restarted loop has nothing left to fire from the first life.
  std::this_thread::sleep_for(std::chrono::milliseconds(220));
  EXPECT_FALSE(stale_ran.load());
  t.Stop();
}

// Loopback sends the kernel accepts are counted as sent; a rejected
// sendto() (short send, ENOBUFS) would land in datagrams_dropped(), which
// on loopback at this volume must stay 0 — the same invariant the
// multi-process soak asserts at scale.
TEST(UdpTimerLifecycle, LoopbackSendsCountAndNeverDrop) {
  UdpTransport a(UdpTransport::Options{.host = 1});
  UdpTransport b(UdpTransport::Options{.host = 2});
  a.AddPeer(2, b.port());
  a.Start();
  b.Start();
  std::atomic<int> received{0};
  b.OnReceive([&received](HostId, const std::uint8_t*, std::size_t) {
    ++received;
  });
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  constexpr int kSends = 32;
  for (int i = 0; i < kSends; ++i) a.Send(2, payload);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received.load() < kSends &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received.load(), kSends);
  EXPECT_EQ(a.datagrams_sent(), static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(a.datagrams_dropped(), 0u);
  b.Stop();
  a.Stop();
}

// --- byte identity through the seam (simulator only) ----------------------
//
// The workloads mirror simulator_determinism_test: if SimTransport consumed
// sequence numbers differently from raw Simulator::Schedule* (an extra
// wrapper event, a reordered assignment), these traces would diverge — and
// so would every golden in the repo.

using Trace = std::vector<std::pair<SimTime, int>>;

// The scripted workload of simulator_determinism_test, scheduled through a
// Transport instead of the simulator. Must match that test's hand-computed
// golden exactly.
Trace ScriptedTraceViaTransport() {
  Simulator sim;
  SimTransport t(sim);
  Trace trace;
  auto hit = [&](int tag) { trace.emplace_back(t.Now(), tag); };
  t.ScheduleIn(300, [&] { hit(0); });
  t.ScheduleIn(100, [&] {
    hit(1);
    t.ScheduleIn(0, [&] { hit(5); });
    t.ScheduleIn(50, [&] { hit(6); });
  });
  t.ScheduleIn(200, [&] {
    hit(2);
    t.ScheduleIn(SimTime{1} << 40, [&] { hit(7); });
  });
  t.ScheduleIn(100, [&] { hit(3); });  // tie with tag 1: schedule order
  t.ScheduleIn(0, [&] { hit(4); });
  sim.Run();
  return trace;
}

TEST(SimByteIdentity, TransportSeamReproducesScriptedGolden) {
  const Trace golden = {
      {0, 4},   {100, 1}, {100, 3}, {100, 5},
      {150, 6}, {200, 2}, {300, 0}, {(SimTime{1} << 40) + 200, 7},
  };
  EXPECT_EQ(ScriptedTraceViaTransport(), golden);
}

// Self-driving randomized workload (same regimes as the determinism
// test's RandomDriver): randomness is consumed *inside* events, so the
// direct and through-the-seam traces only agree if every (time, seq)
// assignment matches — any divergence derails the whole tail.
struct SeamDriver {
  Simulator sim;
  SimTransport transport{sim};
  const bool via_seam;
  Rng rng;
  Trace trace;
  int next_tag = 0;

  SeamDriver(std::uint64_t seed, bool seam) : via_seam(seam), rng(seed) {}

  template <class Fn>
  void Schedule(SimTime delay, Fn&& fn) {
    if (via_seam) {
      transport.ScheduleIn(delay, std::forward<Fn>(fn));
    } else {
      sim.ScheduleIn(delay, std::forward<Fn>(fn));
    }
  }

  void Spawn(SimTime delay, int depth) {
    const int tag = next_tag++;
    Schedule(delay, [this, tag, depth] {
      trace.emplace_back(sim.Now(), tag);
      if (depth <= 0) return;
      const int kids = static_cast<int>(rng.UniformInt(0, 2));
      for (int k = 0; k < kids; ++k) {
        const std::int64_t regime = rng.UniformInt(0, 9);
        SimTime d;
        if (regime < 3) {
          d = 0;
        } else if (regime < 7) {
          d = rng.UniformInt(1, 64);
        } else if (regime < 9) {
          d = rng.UniformInt(1000, 50000);
        } else {
          d = rng.UniformInt(1, 4) << 30;
        }
        Spawn(d, depth - 1);
      }
    });
  }
};

Trace RandomTraceVia(std::uint64_t seed, bool via_seam) {
  SeamDriver d(seed, via_seam);
  for (int i = 0; i < 32; ++i) d.Spawn(500, 3);
  for (int i = 0; i < 96; ++i) d.Spawn(d.rng.UniformInt(0, 20000), 3);
  for (int i = 0; i < 8; ++i) d.Spawn(d.rng.UniformInt(1, 8) << 28, 2);
  d.sim.Run();
  return d.trace;
}

TEST(SimByteIdentity, RandomWorkloadsAgreeDirectAndThroughSeam) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const Trace direct = RandomTraceVia(seed, /*via_seam=*/false);
    const Trace seam = RandomTraceVia(seed, /*via_seam=*/true);
    ASSERT_FALSE(direct.empty());
    EXPECT_EQ(direct, seam) << "seed " << seed;
  }
}

// Transport scheduling and direct simulator scheduling share one sequence
// space: interleaved same-deadline events fire in global schedule order,
// not grouped by which API queued them.
TEST(SimByteIdentity, MixedSchedulingSharesOneSequenceSpace) {
  Simulator sim;
  SimTransport t(sim);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    auto hit = [&order, i] { order.push_back(i); };
    if (i % 2 == 0) {
      sim.ScheduleIn(100, hit);
    } else {
      t.ScheduleIn(100, hit);
    }
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace tmesh
