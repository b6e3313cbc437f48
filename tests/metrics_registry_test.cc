// Tests for the metrics registry (handle resolution, merge semantics, JSON
// round-trip, cross-replica merge determinism) and the message tracer (ring
// retention, chrome-tracing JSON shape).
#include "metrics/registry.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/trace.h"
#include "sim/replica_runner.h"

namespace tmesh {
namespace {

TEST(Registry, CountersGaugesHistogramsBasics) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  c->Increment();
  c->Add(4);
  EXPECT_EQ(c->value(), 5);

  Gauge* g = reg.GetGauge("g");
  EXPECT_FALSE(g->set());
  g->Set(2.5);
  EXPECT_TRUE(g->set());
  EXPECT_DOUBLE_EQ(g->value(), 2.5);

  Histogram* h = reg.GetHistogram("h");
  h->Observe(1.0);
  h->Observe(3.0);
  h->Observe(100.0);
  EXPECT_EQ(h->count(), 3);
  EXPECT_DOUBLE_EQ(h->sum(), 104.0);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 100.0);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, HandlesAreStableAcrossResolvesAndMoves) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("stable");
  c->Add(7);
  EXPECT_EQ(reg.GetCounter("stable"), c);
  // Force rebalancing around the entry.
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("pad" + std::to_string(i));
  }
  EXPECT_EQ(reg.GetCounter("stable"), c);
  MetricsRegistry moved = std::move(reg);
  EXPECT_EQ(moved.GetCounter("stable"), c);
  EXPECT_EQ(c->value(), 7);
}

TEST(Registry, KindMismatchIsACheckFailure) {
  MetricsRegistry reg;
  reg.GetCounter("x");
  EXPECT_THROW(reg.GetGauge("x"), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("x"), std::logic_error);
  EXPECT_EQ(reg.FindGauge("x"), nullptr);
  EXPECT_NE(reg.FindCounter("x"), nullptr);
}

TEST(Registry, BucketGeometryIsPowersOfTwo) {
  EXPECT_EQ(Histogram::BucketOf(0.0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1.0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1.5), 1u);
  EXPECT_EQ(Histogram::BucketOf(2.0), 1u);
  EXPECT_EQ(Histogram::BucketOf(1024.0), 10u);
  // Values past the last bound land in the final bucket.
  EXPECT_EQ(Histogram::BucketOf(1e30), Histogram::kBuckets - 1);
}

TEST(Registry, MergeAddsCountersAndCombinesHistograms) {
  MetricsRegistry a, b;
  a.GetCounter("c")->Add(3);
  b.GetCounter("c")->Add(4);
  b.GetCounter("only_b")->Add(1);
  a.GetHistogram("h")->Observe(8.0);
  b.GetHistogram("h")->Observe(2.0);
  b.GetHistogram("h")->Observe(32.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.FindCounter("c")->value(), 7);
  EXPECT_EQ(a.FindCounter("only_b")->value(), 1);
  const Histogram* h = a.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3);
  EXPECT_DOUBLE_EQ(h->sum(), 42.0);
  EXPECT_DOUBLE_EQ(h->min(), 2.0);
  EXPECT_DOUBLE_EQ(h->max(), 32.0);
}

TEST(Registry, MergeGaugeTakesDonorOnlyWhenSet) {
  MetricsRegistry a, b;
  a.GetGauge("g")->Set(1.0);
  b.GetGauge("g");  // resolved but never Set(): donor must not clobber
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.FindGauge("g")->value(), 1.0);
  b.GetGauge("g")->Set(9.0);
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.FindGauge("g")->value(), 9.0);
}

TEST(Registry, MergeEmptyHistogramLeavesMinMaxAlone) {
  MetricsRegistry a, b;
  a.GetHistogram("h")->Observe(5.0);
  b.GetHistogram("h");  // zero observations
  a.MergeFrom(b);
  const Histogram* h = a.FindHistogram("h");
  EXPECT_EQ(h->count(), 1);
  EXPECT_DOUBLE_EQ(h->min(), 5.0);
  EXPECT_DOUBLE_EQ(h->max(), 5.0);
}

TEST(Registry, MergeKindMismatchThrows) {
  MetricsRegistry a, b;
  a.GetCounter("x");
  b.GetGauge("x");
  EXPECT_THROW(a.MergeFrom(b), std::logic_error);
}

TEST(Registry, JsonRoundTripIsByteStable) {
  MetricsRegistry reg;
  reg.GetCounter("sim.events_run")->Add(12345);
  reg.GetGauge("headline.fraction")->Set(0.78125);
  reg.GetGauge("negative")->Set(-3.5);
  Histogram* h = reg.GetHistogram("tmesh.uplink_bytes_per_host");
  h->Observe(48.0);
  h->Observe(960.0);
  h->Observe(0.125);
  const std::string json = reg.ToJson();

  MetricsRegistry back;
  ASSERT_TRUE(back.ParseJson(json));
  EXPECT_EQ(back.ToJson(), json);
  EXPECT_EQ(back.FindCounter("sim.events_run")->value(), 12345);
  EXPECT_DOUBLE_EQ(back.FindGauge("headline.fraction")->value(), 0.78125);
  const Histogram* hb = back.FindHistogram("tmesh.uplink_bytes_per_host");
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->count(), 3);
  EXPECT_DOUBLE_EQ(hb->min(), 0.125);
  EXPECT_DOUBLE_EQ(hb->max(), 960.0);
}

TEST(Registry, ParseJsonRejectsGarbageAndLeavesRegistryUnchanged) {
  MetricsRegistry reg;
  reg.GetCounter("keep")->Add(1);
  const std::string before = reg.ToJson();
  EXPECT_FALSE(reg.ParseJson("not json"));
  EXPECT_FALSE(reg.ParseJson("{\"counters\":{\"a\":}}"));
  EXPECT_FALSE(reg.ParseJson("{\"counters\":{\"a\":1}"));  // truncated
  EXPECT_EQ(reg.ToJson(), before);
}

TEST(Registry, EmptyRegistryJson) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.ToJson(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  MetricsRegistry back;
  EXPECT_TRUE(back.ParseJson(reg.ToJson()));
  EXPECT_TRUE(back.empty());
}

// The ReplicaRunner contract: replica-local registries merged in strictly
// increasing run index produce a byte-identical aggregate for every thread
// count. This is the exact shape the figure pipeline uses (the tsan preset
// runs this test to race-check the merge under real worker threads).
TEST(Registry, CrossReplicaMergeIsThreadCountInvariant) {
  constexpr int kRuns = 12;
  auto run_with = [&](int threads) {
    MetricsRegistry agg;
    ReplicaRunner runner(threads);
    runner.Run(
        kRuns,
        [](ReplicaRunner::Replica& rep) {
          MetricsRegistry local;
          local.GetCounter("runs")->Increment();
          local.GetCounter("weighted")->Add(rep.index + 1);
          local.GetGauge("last_index")
              ->Set(static_cast<double>(rep.index));
          Histogram* h = local.GetHistogram("index_dist");
          for (int i = 0; i <= rep.index; ++i) {
            h->Observe(static_cast<double>(i * 3 + 1));
          }
          return local;
        },
        [&](int, MetricsRegistry&& local) { agg.MergeFrom(local); });
    return agg.ToJson();
  };
  const std::string base = run_with(1);
  EXPECT_EQ(run_with(2), base);
  EXPECT_EQ(run_with(7), base);
  // Gauge convention: the last run in index order wins.
  MetricsRegistry probe;
  ASSERT_TRUE(probe.ParseJson(base));
  EXPECT_DOUBLE_EQ(probe.FindGauge("last_index")->value(), kRuns - 1);
  EXPECT_EQ(probe.FindCounter("runs")->value(), kRuns);
  EXPECT_EQ(probe.FindCounter("weighted")->value(), kRuns * (kRuns + 1) / 2);
}

// --- tracer --------------------------------------------------------------

TEST(Tracer, RetainsMostRecentSpansWhenRingWraps) {
  MessageTracer tr(4);
  for (int i = 0; i < 6; ++i) {
    tr.Record("span", i, i * 10, static_cast<double>(i), 1.0);
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.capacity(), 4u);
  EXPECT_EQ(tr.dropped(), 2u);
  // Oldest-first iteration: spans 2..5 survive.
  for (std::size_t i = 0; i < tr.size(); ++i) {
    EXPECT_EQ(tr.span(i).message, static_cast<std::int64_t>(i + 2));
  }
  tr.Clear();
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(Tracer, ChromeTraceJsonShape) {
  MessageTracer tr(8);
  tr.Record("birth", 7, 3, 1.5, 0.0);
  tr.Record("forward", 7, 3, 1.5, 2.25);
  std::ostringstream os;
  tr.WriteChromeTrace(os);
  const std::string out = os.str();
  // Times are exported in microseconds (sim ms x 1000).
  EXPECT_EQ(out,
            "{\"traceEvents\":["
            "{\"name\":\"birth\",\"ph\":\"X\",\"ts\":1500,\"dur\":0,"
            "\"pid\":7,\"tid\":3},"
            "{\"name\":\"forward\",\"ph\":\"X\",\"ts\":1500,\"dur\":2250,"
            "\"pid\":7,\"tid\":3}"
            "]}");
}

TEST(Tracer, EmptyTraceIsValidJson) {
  MessageTracer tr(2);
  std::ostringstream os;
  tr.WriteChromeTrace(os);
  EXPECT_EQ(os.str(), "{\"traceEvents\":[]}");
}

}  // namespace
}  // namespace tmesh
