#include "peerlab/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "peerlab/obs/profile.hpp"

namespace peerlab::obs {
namespace {

TEST(Counter, AccumulatesAndMerges) {
  Counter a;
  EXPECT_EQ(a.value(), 0u);
  a.add();
  a.add(41);
  EXPECT_EQ(a.value(), 42u);
  Counter b;
  b.add(8);
  a.merge(b);
  EXPECT_EQ(a.value(), 50u);
}

TEST(Gauge, SetAddMerge) {
  Gauge g;
  g.set(1.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  Gauge h;
  h.set(3.0);
  g.merge(h);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

Histogram::Options small_options() {
  Histogram::Options opts;
  opts.lo = 1.0;
  opts.hi = 16.0;
  opts.sub_buckets = 4;
  return opts;
}

TEST(Histogram, EmptyReadsAsZero) {
  Histogram h(small_options());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(Histogram, BucketLayoutCoversRange) {
  Histogram h(small_options());
  // [1,16) in octaves of 4 sub-buckets: [1,2) [2,4) [4,8) [8,16)
  // → 4 octaves * 4 + underflow + overflow = 18 buckets.
  EXPECT_EQ(h.bucket_count(), 18u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 1.25);
  EXPECT_DOUBLE_EQ(h.bucket_lo(h.bucket_count() - 1), 16.0);
  // Bucket bounds tile the range with no gaps or overlaps.
  for (std::size_t i = 1; i + 1 < h.bucket_count(); ++i) {
    EXPECT_DOUBLE_EQ(h.bucket_hi(i), h.bucket_lo(i + 1)) << "gap after bucket " << i;
    EXPECT_LT(h.bucket_lo(i), h.bucket_hi(i));
  }
}

TEST(Histogram, ExactValuesAtBucketEdges) {
  Histogram h(small_options());
  // A bucket's lower edge is inclusive: recording exactly bucket_lo(i)
  // must land in bucket i, and the value just below must not.
  for (std::size_t i = 1; i + 1 < h.bucket_count(); ++i) {
    const double edge = h.bucket_lo(i);
    EXPECT_EQ(h.bucket_index(edge), i) << "edge " << edge;
    EXPECT_EQ(h.bucket_index(std::nextafter(edge, 0.0)), i - 1) << "below edge " << edge;
  }
  // Range edges: lo is the first real bucket, hi overflows.
  EXPECT_EQ(h.bucket_index(1.0), 1u);
  EXPECT_EQ(h.bucket_index(std::nextafter(1.0, 0.0)), 0u);
  EXPECT_EQ(h.bucket_index(16.0), h.bucket_count() - 1);
  EXPECT_EQ(h.bucket_index(std::nextafter(16.0, 0.0)), h.bucket_count() - 2);
}

TEST(Histogram, UnderflowAndOverflowConserveTotals) {
  Histogram h(small_options());
  h.record(0.25);   // under lo
  h.record(1000.0); // over hi
  h.record(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(h.bucket_count() - 1), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 1003.25);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(Histogram, ExactStatsAreExact) {
  Histogram h;  // default seconds-ish geometry
  const double values[] = {0.001, 0.010, 0.100, 1.0, 10.0};
  double sum = 0.0;
  for (double v : values) {
    h.record(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.mean(), sum / 5.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST(Histogram, QuantilesBracketedByBuckets) {
  Histogram h(small_options());
  for (int i = 0; i < 100; ++i) h.record(3.0);  // all in bucket [3, 3.5)
  // Every quantile of a point mass must read inside that sample's
  // bucket — and the min/max clamp pins it to exactly 3.0 here.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(Histogram, QuantileOrderingAndBounds) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 0.001);  // 1ms .. 1s uniform
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(h.min(), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // Log-linear resolution is ~1/sub_buckets per bucket; allow 2 buckets
  // of slop around the exact order statistics.
  EXPECT_NEAR(p50, 0.5, 0.5 * 0.3);
  EXPECT_NEAR(p90, 0.9, 0.9 * 0.3);
  EXPECT_NEAR(p99, 0.99, 0.99 * 0.3);
}

TEST(Histogram, MergeCombinesDistributions) {
  Histogram a(small_options());
  Histogram b(small_options());
  a.record(1.5);
  a.record(2.5);
  b.record(6.0);
  b.record(12.0);
  b.record(0.1);  // underflow travels through merge too
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 1.5 + 2.5 + 6.0 + 12.0 + 0.1);
  EXPECT_DOUBLE_EQ(a.min(), 0.1);
  EXPECT_DOUBLE_EQ(a.max(), 12.0);
  EXPECT_EQ(a.bucket(0), 1u);
  // Merging an empty histogram is a no-op; merging into an empty one
  // copies the source's extremes.
  Histogram empty(small_options());
  a.merge(empty);
  EXPECT_EQ(a.count(), 5u);
  Histogram fresh(small_options());
  fresh.merge(a);
  EXPECT_EQ(fresh.count(), 5u);
  EXPECT_DOUBLE_EQ(fresh.min(), 0.1);
  EXPECT_DOUBLE_EQ(fresh.max(), 12.0);
}

TEST(Registry, HandlesAreStableAndDeduplicated) {
  MetricRegistry reg;
  Counter& c1 = reg.counter("net.datagrams_sent", "datagrams");
  Counter& c2 = reg.counter("net.datagrams_sent");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_EQ(c2.value(), 3u);
  // Creating more instruments must not move existing handles.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("net.datagrams_sent"), &c1);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(Registry, FindDoesNotCreate) {
  MetricRegistry reg;
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("a");
  reg.gauge("b");
  reg.histogram("c");
  EXPECT_NE(reg.find_counter("a"), nullptr);
  EXPECT_NE(reg.find_gauge("b"), nullptr);
  EXPECT_NE(reg.find_histogram("c"), nullptr);
  // Kind mismatch reads as absent.
  EXPECT_EQ(reg.find_gauge("a"), nullptr);
  EXPECT_EQ(reg.find_counter("c"), nullptr);
}

TEST(Registry, MergeAggregatesAcrossRegistries) {
  MetricRegistry total;
  total.counter("x").add(1);
  total.histogram("lat", "s").record(0.5);

  MetricRegistry rep;
  rep.counter("x").add(2);
  rep.counter("y").add(7);
  rep.gauge("g").set(1.25);
  rep.histogram("lat", "s").record(1.5);

  total.merge(rep);
  EXPECT_EQ(total.find_counter("x")->value(), 3u);
  EXPECT_EQ(total.find_counter("y")->value(), 7u);
  EXPECT_DOUBLE_EQ(total.find_gauge("g")->value(), 1.25);
  EXPECT_EQ(total.find_histogram("lat")->count(), 2u);
  EXPECT_DOUBLE_EQ(total.find_histogram("lat")->sum(), 2.0);
}

TEST(Registry, JsonSummaryHasFlatMetricsMap) {
  MetricRegistry reg;
  reg.counter("overlay.failovers").add(4);
  reg.gauge("net.brownout_seconds", "s").set(12.5);
  Histogram& h = reg.histogram("overlay.selection.latency_s", "s");
  h.record(0.25);
  h.record(0.75);

  const std::string json = reg.json("fig6");
  EXPECT_NE(json.find("\"label\": \"fig6\""), std::string::npos);
  EXPECT_NE(json.find("\"overlay.failovers\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"net.brownout_seconds\": 12.5"), std::string::npos);
  EXPECT_NE(json.find("\"overlay.selection.latency_s.count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"overlay.selection.latency_s.p50\""), std::string::npos);
  EXPECT_NE(json.find("\"overlay.selection.latency_s.p99\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"s\""), std::string::npos);
}

TEST(WallProfiler, NestedSpansChargeInclusiveAndSelfTime) {
  MetricRegistry registry;
  WallProfiler profiler(registry);
  {
    const WallProfiler::Span outer(&profiler, "outer");
    const WallProfiler::Span inner(&profiler, "inner");
  }
  const WallProfiler::Site& outer = profiler.site("outer");
  const WallProfiler::Site& inner = profiler.site("inner");
  ASSERT_EQ(outer.wall->count(), 1u);
  ASSERT_EQ(inner.wall->count(), 1u);
  EXPECT_GE(inner.wall->max(), 0.0);
  EXPECT_GE(outer.wall->max(), inner.wall->max());
  // Self time is inclusive time minus the direct children's.
  EXPECT_DOUBLE_EQ(inner.self->value(), inner.wall->max());
  EXPECT_DOUBLE_EQ(outer.self->value(), outer.wall->max() - inner.wall->max());

  // A span on a null profiler is inert: it registers nothing.
  const std::size_t instruments = registry.entries().size();
  { const WallProfiler::Span inert(nullptr, "inert"); }
  EXPECT_EQ(registry.entries().size(), instruments);
}

}  // namespace
}  // namespace peerlab::obs
