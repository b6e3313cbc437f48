// Shared pieces of the benchmark binary: wall clocks, layer spans, sample
// statistics, the output digest and the result record each workload fills.
//
// Tracing model. A traced run replays a workload through the same public
// calls the production entry points make (KeyServer, GroupSession,
// RunLatencyExperiment) and wraps each call in a Span naming its layer. Span
// totals are kept in memory per thread (a Tracer is single-threaded) and
// merged when the run ends. Untraced runs construct no Tracer at all, so the
// end-to-end numbers carry no tracing cost.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The layers spans are attributed to. Names follow the repository's module
// names; a workload reports 0 for a layer it never calls.
enum class Layer : int {
  kTopologyBuild,
  kTopologySpt,
  kIdAssign,
  kDirAdd,
  kDirRemove,
  kMtreeJoinLeave,
  kMtreeRekey,
  kClusters,
  kNiceJoin,
  kNiceDeliver,
  kTmeshBegin,
  kSimDrain,
  kWglRekey,
  kWireEncode,
  kWireDecode,
  kUdpSend,
  kMemberVerify,
  kTmeshForward,
  kCount,
};

inline const char* LayerName(Layer l) {
  static const char* const kNames[] = {
      "topology.build", "topology.spt",   "id_assignment",
      "directory.add",  "directory.remove", "mtree.join_leave",
      "mtree.rekey",    "clusters",        "nice.join",
      "nice.deliver",   "tmesh.begin",     "sim.drain",
      "wgl.rekey",      "wire.encode",     "wire.decode",
      "udp.send",       "member.verify",   "tmesh.forward",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(Layer::kCount));
  return kNames[static_cast<int>(l)];
}

// Per-thread span accumulator: total seconds and call count per layer.
class Tracer {
 public:
  void Add(Layer l, double seconds) {
    seconds_[static_cast<std::size_t>(l)] += seconds;
    ++calls_[static_cast<std::size_t>(l)];
  }
  double seconds(Layer l) const { return seconds_[static_cast<std::size_t>(l)]; }
  std::int64_t calls(Layer l) const { return calls_[static_cast<std::size_t>(l)]; }
  void MergeFrom(const Tracer& o) {
    for (std::size_t i = 0; i < seconds_.size(); ++i) {
      seconds_[i] += o.seconds_[i];
      calls_[i] += o.calls_[i];
    }
  }
  // The spans recorded since `before`, an earlier copy of this tracer.
  Tracer Since(const Tracer& before) const {
    Tracer d = *this;
    for (std::size_t i = 0; i < seconds_.size(); ++i) {
      d.seconds_[i] -= before.seconds_[i];
      d.calls_[i] -= before.calls_[i];
    }
    return d;
  }

 private:
  std::array<double, static_cast<std::size_t>(Layer::kCount)> seconds_{};
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> calls_{};
};

// Times one call into a layer when `t` is non-null; a plain call otherwise.
template <class Fn>
decltype(auto) Traced(Tracer* t, Layer l, Fn&& fn) {
  if (t == nullptr) return fn();
  struct Span {
    Tracer* t;
    Layer l;
    double t0 = NowSeconds();
    ~Span() { t->Add(l, NowSeconds() - t0); }
  } span{t, l};
  return fn();
}

// Nearest-rank percentile over a sample (p in [0, 100]); 0 when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

// Order-sensitive FNV-1a digest over the workload's outputs (assigned IDs,
// rekey costs, per-member delays). Doubles are hashed by bit pattern, so
// equal digests mean bit-identical outputs.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  // Traced runs replay exactly this many measured steps (the count the
  // untraced run of the same seed completed); 0 means "run for `seconds`".
  long steps = 0;
};

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

// What one workload run reports. `e2e` holds the end-to-end metrics
// (setup_s, step_ms_p10, peak_rss_mib); `detail` the workload's own latency
// percentiles, throughput and sample counts; `layers` the per-layer metrics
// of a traced run.
//
// step_ms_p10 is the fastest tenth of the run's steps. Other tenants of a
// shared host only ever add time, and they slow this program by ±20% for
// seconds at a time; the low tail tracks the program's own cost, while the
// median (printed with the detail) tracks how busy the host was.
struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  long steps = 0;
  double measured_s = 0.0;
  Digest digest;
  std::vector<std::string> errors;  // first few failures, for stderr
  std::map<std::string, double> e2e;
  std::map<std::string, double> detail;
  std::map<std::string, double> layers;
  Tracer spans;  // measured-phase spans (traced runs)
  // What trace.coverage divides the spans by: the measured phase when 0,
  // else the time the workload's threads spent working in it.
  double coverage_base_s = 0.0;

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  // Median, tail percentile and sample count of a latency series.
  void Describe(const std::string& name, const std::vector<double>& s,
                double tail) {
    detail[name + "_p50"] = Percentile(s, 50.0);
    char tail_name[16];
    std::snprintf(tail_name, sizeof(tail_name), "_p%g", tail);
    detail[name + tail_name] = Percentile(s, tail);
    detail[name + "_samples"] = static_cast<double>(s.size());
  }
};

}  // namespace perfbench
