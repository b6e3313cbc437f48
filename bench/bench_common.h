// Shared machinery for the figure-reproduction drivers.
//
// Every fig* binary reproduces one figure of the paper's evaluation as a
// text table (see EXPERIMENTS.md for the mapping and the expected shapes).
// Each binary registers a FigureSpec {name, title, order, recorded} and
// parses the one shared flag surface, so usage text, validation, and the
// machine-readable --spec handshake are identical across the suite. Every
// bench runs on the one sequential simulator; the only parallelism is
// across replicas (--threads).
// scripts/regen_experiments.sh discovers the benches by probing every
// build/bench executable with --spec — no hard-coded list to drift.
//
// Common flags:
//   --runs=N     number of simulation runs to aggregate (paper run counts
//                are larger; defaults here keep the full bench suite fast)
//   --seed=N     master seed
//   --users=N    override the population where applicable
//   --threads=N  replica worker threads (default: hardware concurrency;
//                1 runs the old sequential loop). Stdout is byte-identical
//                for every N — only wall-clock and the ordering of stderr
//                progress notes change.
//   --metrics-json=PATH
//                write the bench's metrics-registry snapshot (counters,
//                gauges, histograms — see src/metrics/registry.h) to PATH
//                as JSON. Stdout is byte-identical with or without it.
//   --trace-json=PATH
//                write a chrome://tracing span dump of replica 0's message
//                flow to PATH (latency figures only; others write an empty
//                trace). Stdout is byte-identical with or without it.
//   --full       paper-scale settings
//   --spec       print "order<TAB>recorded<TAB>name<TAB>title" and exit 0
//                (the regen-script discovery handshake)
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "metrics/registry.h"
#include "metrics/report.h"
#include "metrics/trace.h"
#include "protocols/latency_figure.h"
#include "sim/replica_runner.h"
#include "topology/gtitm.h"
#include "topology/planetlab.h"

namespace tmesh::bench {

// One entry in the bench registry. `order` fixes the position in
// bench_output.txt (EXPERIMENTS.md order); `recorded` is false for benches
// whose output is wall-clock-dependent (they are smoke-run, not recorded).
struct FigureSpec {
  const char* name;   // binary name, as built under build/bench/
  const char* title;  // one-line description, shown in usage and --spec
  int order = 0;
  bool recorded = true;
};

struct Flags {
  int runs = -1;          // -1: driver default
  int users = -1;
  int threads = 0;        // 0: hardware concurrency
  std::uint64_t seed = 1;
  bool full = false;      // paper-scale settings
  std::string metrics_json;  // empty: no metrics artifact
  std::string trace_json;    // empty: no trace artifact

  // Replica pool width after defaulting.
  int Threads() const {
    return threads > 0 ? threads : ReplicaRunner::HardwareThreads();
  }

  static void Usage(const FigureSpec& spec, const char* argv0) {
    std::fprintf(stderr,
                 "%s — %s\n"
                 "usage: %s [--runs=N] [--users=N] [--seed=N] [--threads=N] "
                 "[--full]\n"
                 "  --threads=N  replica worker threads (default: hardware "
                 "concurrency;\n"
                 "               1 = sequential; stdout is identical for "
                 "every N)\n"
                 "  --metrics-json=PATH  write the metrics-registry JSON "
                 "snapshot to PATH\n"
                 "  --trace-json=PATH    write a chrome://tracing span dump "
                 "to PATH\n"
                 "  --spec       print the registry line and exit\n",
                 spec.name, spec.title, argv0);
    std::exit(2);
  }

  // Strict numeric parse: the whole token must be a decimal number in
  // [min_v, max_v]. (std::atoi silently yielded 0 for malformed input,
  // which turned e.g. --runs=1O into a zero-run bench.)
  static long long ParseNum(const char* argv0, const char* flag,
                            const char* text, long long min_v,
                            long long max_v) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < min_v ||
        v > max_v) {
      std::fprintf(stderr, "%s: invalid value for %s: '%s'\n", argv0, flag,
                   text);
      std::exit(2);
    }
    return v;
  }

  static Flags Parse(const FigureSpec& spec, int argc, char** argv) {
    Flags f;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--spec") == 0) {
        // Machine-readable registry line; regen_experiments.sh probes every
        // bench executable with this to discover name/order/recorded.
        std::printf("%d\t%d\t%s\t%s\n", spec.order, spec.recorded ? 1 : 0,
                    spec.name, spec.title);
        std::exit(0);
      } else if (std::strncmp(a, "--runs=", 7) == 0) {
        f.runs = static_cast<int>(
            ParseNum(argv[0], "--runs", a + 7, 1, 1 << 20));
      } else if (std::strncmp(a, "--users=", 8) == 0) {
        f.users = static_cast<int>(
            ParseNum(argv[0], "--users", a + 8, 2, 1 << 20));
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        f.threads = static_cast<int>(
            ParseNum(argv[0], "--threads", a + 10, 1, 4096));
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        f.seed = static_cast<std::uint64_t>(ParseNum(
            argv[0], "--seed", a + 7, 0,
            std::numeric_limits<long long>::max()));
      } else if (std::strncmp(a, "--metrics-json=", 15) == 0) {
        f.metrics_json = a + 15;
        if (f.metrics_json.empty()) Usage(spec, argv[0]);
      } else if (std::strncmp(a, "--trace-json=", 13) == 0) {
        f.trace_json = a + 13;
        if (f.trace_json.empty()) Usage(spec, argv[0]);
      } else if (std::strcmp(a, "--full") == 0) {
        f.full = true;
      } else {
        Usage(spec, argv[0]);
      }
    }
    return f;
  }
};

// Owns the registry and tracer a bench threads through its experiment
// configs when --metrics-json / --trace-json are set. The accessors return
// null when the corresponding flag is absent, which keeps the experiment
// hot paths untouched and the text output byte-identical either way.
// Call Write() after the tables are printed to emit the artifacts.
class Artifacts {
 public:
  explicit Artifacts(const Flags& f)
      : metrics_path_(f.metrics_json), trace_path_(f.trace_json) {}

  MetricsRegistry* metrics() {
    return metrics_path_.empty() ? nullptr : &registry_;
  }
  MessageTracer* tracer() { return trace_path_.empty() ? nullptr : &tracer_; }

  void Write() {
    if (!metrics_path_.empty()) {
      std::ofstream os(metrics_path_);
      TMESH_CHECK_MSG(os.good(), "cannot open --metrics-json path");
      registry_.WriteJson(os);
      os << "\n";
      TMESH_CHECK_MSG(os.good(), "write to --metrics-json path failed");
    }
    if (!trace_path_.empty()) {
      std::ofstream os(trace_path_);
      TMESH_CHECK_MSG(os.good(), "cannot open --trace-json path");
      tracer_.WriteChromeTrace(os);
      os << "\n";
      TMESH_CHECK_MSG(os.good(), "write to --trace-json path failed");
    }
  }

 private:
  std::string metrics_path_, trace_path_;
  MetricsRegistry registry_;
  MessageTracer tracer_;
};

using Topo = FigureTopology;

// The paper's T-mesh defaults: D=5, B=256, K=4, P=10, F=90,
// R=(150,30,9,3) ms, NICE k=3.
inline SessionConfig PaperSession() {
  SessionConfig s;
  s.group = GroupParams{5, 256, 4};
  s.assign.collect_target = 10;
  s.assign.percentile = 90.0;
  s.assign.thresholds_ms = {150.0, 30.0, 9.0, 3.0};
  s.nice.k = 3;
  return s;
}

inline std::unique_ptr<Network> MakeNetwork(Topo topo, int hosts,
                                            std::uint64_t seed) {
  return MakeFigureNetwork(topo, hosts, seed);
}

// Runs a Figs. 6-11 style latency figure on the replica pool; see
// protocols/latency_figure.h for the workload and the determinism contract.
inline void RunLatencyFigure(const std::string& title, Topo topo, int users,
                             bool data_path, int runs, std::uint64_t seed,
                             int threads, Artifacts* artifacts = nullptr) {
  LatencyFigureConfig cfg;
  cfg.title = title;
  cfg.topo = topo;
  cfg.users = users;
  cfg.data_path = data_path;
  cfg.runs = runs;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.session = PaperSession();
  cfg.progress = true;
  if (artifacts != nullptr) {
    cfg.metrics = artifacts->metrics();
    cfg.tracer = artifacts->tracer();
  }
  PrintLatencyFigure(std::cout, cfg);
  if (artifacts != nullptr) artifacts->Write();
}

}  // namespace tmesh::bench
