// perfbench: runs one benchmark workload and reports it.
//
//   perfbench --workload=NAME --seed=N [--seconds=S] [--trace] [--steps=K]
//
// Untraced runs time the production entry points and report the end-to-end
// metrics. --trace replays the same seed through the spanned, composed
// calls; pass --steps with the step count an untraced run of the same seed
// completed so both runs do identical work (their digests must match).
//
// Human-readable lines go to stdout first; the last line is
// "PERFBENCH_RESULT {json}", which perfbench/run.py turns into the
// benchmark's result object.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=NAME --seed=N "
               "[--seconds=S] [--trace] [--steps=K]\n",
               why);
  std::exit(64);
}

RunOptions Parse(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = val("--workload=")) {
      o.workload = v;
    } else if (const char* v = val("--seed=")) {
      o.seed = std::strtoull(v, &end, 10);
    } else if (const char* v = val("--seconds=")) {
      o.seconds = std::strtod(v, &end);
    } else if (const char* v = val("--steps=")) {
      o.steps = std::strtol(v, &end, 10);
    } else if (a == "--trace") {
      o.traced = true;
    } else {
      Usage(("unknown flag " + a).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("malformed value in " + a).c_str());
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (o.seconds <= 0.0 || o.steps < 0) Usage("bad numeric flag");
  return o;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonObject(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += JsonString(k) + ":" + buf;
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunOptions o = Parse(argc, argv);
  RunResult r;
  try {
    if (o.workload == "fig08_gtitm1024") {
      r = RunFig08(o);
    } else if (o.workload == "online_synthwan") {
      r = RunOnline(o);
    } else if (o.workload == "keytree_1m") {
      r = RunKeytree(o);
    } else if (o.workload == "udp_loopback") {
      r = RunUdp(o);
    } else {
      Usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  r.correct = r.failed == 0 && r.attempted > 0 && r.steps > 0;
  r.e2e["peak_rss_mib"] = PeakRssMib();

  std::map<std::string, double> spans;
  const double base = r.coverage_base_s > 0.0 ? r.coverage_base_s : r.measured_s;
  if (o.traced) {
    double covered = 0.0;
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      const double s = r.spans.seconds(static_cast<Layer>(l));
      if (s > 0.0) spans[LayerName(static_cast<Layer>(l))] = s;
      covered += s;
    }
    r.layers["trace.coverage"] = base > 0.0 ? covered / base : 0.0;
  }

  std::printf("# %s seed=%llu %s: %ld steps in %.3f s, %ld/%ld ops failed, "
              "digest %s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.traced ? "traced" : "untraced", r.steps, r.measured_s, r.failed,
              r.attempted, r.digest.Hex().c_str());
  for (const auto& [k, v] : r.e2e) std::printf("  %-36s %.6g\n", k.c_str(), v);
  for (const auto& [k, v] : r.detail) std::printf("  %-36s %.6g\n", k.c_str(), v);
  for (const auto& [k, v] : r.layers) std::printf("  %-36s %.6g\n", k.c_str(), v);
  for (const auto& [k, v] : spans) {
    std::printf("  span %-31s %10.4f s  %5.1f%%\n", k.c_str(), v,
                100.0 * v / std::max(base, 1e-9));
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }

  std::string errors = "[";
  for (const std::string& e : r.errors) {
    if (errors.size() > 1) errors += ",";
    errors += JsonString(e);
  }
  errors += "]";
  std::printf(
      "PERFBENCH_RESULT {\"workload\":%s,\"traced\":%s,\"correct\":%s,"
      "\"attempted\":%ld,\"failed\":%ld,\"steps\":%ld,\"measured_s\":%.17g,"
      "\"digest\":\"%s\",\"e2e\":%s,\"detail\":%s,\"layers\":%s,\"spans\":%s,"
      "\"errors\":%s}\n",
      JsonString(o.workload).c_str(), o.traced ? "true" : "false",
      r.correct ? "true" : "false", r.attempted, r.failed, r.steps,
      r.measured_s, r.digest.Hex().c_str(), JsonObject(r.e2e).c_str(),
      JsonObject(r.detail).c_str(), JsonObject(r.layers).c_str(),
      JsonObject(spans).c_str(), errors.c_str());
  return 0;
}
