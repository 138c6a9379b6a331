// Unit tests for the obs metrics registry: counter striping, histogram
// bucket edges (zero, max bound, overflow, NaN rejection), batched
// histogram observation equal to per-value observation, kind-mismatch
// detection, export goldens (JSON + Prometheus), and a concurrent
// hammering test that gives TSan something to chew on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace vp::obs {
namespace {

TEST(Counter, AddAndReset) {
  MetricsRegistry reg;
  Counter& c = reg.counter("vp_test_total");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, SameNameSameHandle) {
  MetricsRegistry reg;
  Counter& a = reg.counter("vp_test_total");
  Counter& b = reg.counter("vp_test_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Counter, DisabledRegistryDropsIncrements) {
  MetricsRegistry reg;
  Counter& c = reg.counter("vp_test_total");
  reg.set_enabled(false);
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
  reg.set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(Gauge, SetAddValue) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("vp_test_gauge");
  g.set(2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Histogram, BucketEdges) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("vp_test_ms", std::vector<double>{1, 2, 5});
  // Prometheus `le` semantics: bucket counts observations <= bound.
  h.observe(0.0);   // -> le=1
  h.observe(1.0);   // exactly on a bound -> le=1
  h.observe(1.5);   // -> le=2
  h.observe(5.0);   // max bound, still le=5
  h.observe(6.0);   // past the last bound -> +Inf overflow bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);  // le=1
  EXPECT_EQ(h.bucket(1), 1u);  // le=2
  EXPECT_EQ(h.bucket(2), 1u);  // le=5
  EXPECT_EQ(h.bucket(3), 1u);  // +Inf
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 6.0);
  EXPECT_DOUBLE_EQ(h.sum(), 13.5);
}

TEST(Histogram, NanRejectedNotCounted) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("vp_test_ms", std::vector<double>{1});
  h.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.nan_rejected(), 1u);
  h.observe(0.5);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, ObserveAllEqualsObservingEachValue) {
  // Batches split anywhere — empty, NaN-only, mixed, a seeded histogram
  // and a fresh one — must leave every bucket, the count, min, max and
  // the NaN count exactly as per-value observe() does.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> values = {3.5f, nan,  0.0f,  1.0f,  2.0f, 250.0f,
                                     0.25f, 5.0f, nan,   -1.0f, 7.5f, 1e6f,
                                     2.0f, 0.5f, 99.0f, nan};
  const std::vector<double> bounds = {0.5, 1, 2, 5, 10, 100};
  for (std::size_t split = 0; split <= values.size(); ++split) {
    MetricsRegistry reg;
    Histogram& each = reg.histogram("vp_each_ms", bounds);
    Histogram& batched = reg.histogram("vp_batched_ms", bounds);
    for (const float v : values) each.observe(v);
    const std::span<const float> all{values};
    batched.observe_all(all.first(split));
    batched.observe_all(all.subspan(split));
    for (std::size_t b = 0; b <= bounds.size(); ++b)
      EXPECT_EQ(batched.bucket(b), each.bucket(b)) << "bucket " << b;
    EXPECT_EQ(batched.count(), each.count()) << "split " << split;
    EXPECT_EQ(batched.nan_rejected(), each.nan_rejected());
    EXPECT_EQ(batched.min(), each.min()) << "split " << split;
    EXPECT_EQ(batched.max(), each.max()) << "split " << split;
    EXPECT_NEAR(batched.sum(), each.sum(), 1e-9 * std::fabs(each.sum()));
  }
  // A NaN-only batch counts its NaNs and seeds nothing.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("vp_nan_ms", bounds);
  h.observe_all(std::vector<float>{nan, nan});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.nan_rejected(), 2u);
  h.observe_all(std::vector<float>{4.0f});
  EXPECT_DOUBLE_EQ(h.min(), 4.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  // Disabled, it records nothing.
  reg.set_enabled(false);
  h.observe_all(std::vector<float>{1.0f, nan});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.nan_rejected(), 2u);
}

TEST(Histogram, RejectsBadBounds) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("vp_a_ms", std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(reg.histogram("vp_b_ms", std::vector<double>{2, 1}),
               std::invalid_argument);
  EXPECT_THROW(
      reg.histogram("vp_c_ms",
                    std::vector<double>{
                        1, std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
}

TEST(Registry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("vp_test_total");
  EXPECT_THROW(reg.gauge("vp_test_total"), std::logic_error);
  EXPECT_THROW(reg.histogram("vp_test_total", std::vector<double>{1}),
               std::logic_error);
}

TEST(Registry, SnapshotSortedByName) {
  MetricsRegistry reg;
  reg.counter("vp_z_total").add(1);
  reg.counter("vp_a_total").add(2);
  reg.gauge("vp_m_gauge").set(3);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "vp_a_total");
  EXPECT_EQ(snap.metrics[1].name, "vp_m_gauge");
  EXPECT_EQ(snap.metrics[2].name, "vp_z_total");
}

TEST(SpanTimer, RecordsOnceIdempotently) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("vp_test_ms", std::vector<double>{1e9});
  {
    Span span{&h};
    const double ms = span.stop();
    EXPECT_GE(ms, 0.0);
    span.stop();  // second stop is a no-op
  }                // destructor must not double-record
  EXPECT_EQ(h.count(), 1u);
}

// ---------------------------------------------------------------------
// Export goldens. Built from a hand-constructed registry so the expected
// text is exact and the round-trip stays reviewable.

Snapshot golden_snapshot() {
  MetricsRegistry reg;
  reg.counter("vp_probes_total").add(1234);
  reg.counter("vp_replies_total{site=\"LAX\"}").add(70);
  reg.counter("vp_replies_total{site=\"MIA\"}").add(30);
  reg.gauge("vp_load_ratio").set(0.75);
  Histogram& h = reg.histogram("vp_rtt_ms", std::vector<double>{10, 100});
  h.observe(5);
  h.observe(50);
  h.observe(500);
  return reg.snapshot();
}

TEST(Export, PrometheusGolden) {
  const std::string expected =
      "# TYPE vp_load_ratio gauge\n"
      "vp_load_ratio 0.75\n"
      "# TYPE vp_probes_total counter\n"
      "vp_probes_total 1234\n"
      "# TYPE vp_replies_total counter\n"
      "vp_replies_total{site=\"LAX\"} 70\n"
      "vp_replies_total{site=\"MIA\"} 30\n"
      "# TYPE vp_rtt_ms histogram\n"
      "vp_rtt_ms_bucket{le=\"10\"} 1\n"
      "vp_rtt_ms_bucket{le=\"100\"} 2\n"
      "vp_rtt_ms_bucket{le=\"+Inf\"} 3\n"
      "vp_rtt_ms_sum 555\n"
      "vp_rtt_ms_count 3\n";
  EXPECT_EQ(to_prometheus(golden_snapshot()), expected);
}

TEST(Export, JsonGolden) {
  const std::string expected =
      "{\n"
      "  \"metrics\": [\n"
      "    {\"name\": \"vp_load_ratio\", \"type\": \"gauge\", "
      "\"value\": 0.75},\n"
      "    {\"name\": \"vp_probes_total\", \"type\": \"counter\", "
      "\"value\": 1234},\n"
      "    {\"name\": \"vp_replies_total{site=\\\"LAX\\\"}\", "
      "\"type\": \"counter\", \"value\": 70},\n"
      "    {\"name\": \"vp_replies_total{site=\\\"MIA\\\"}\", "
      "\"type\": \"counter\", \"value\": 30},\n"
      "    {\"name\": \"vp_rtt_ms\", \"type\": \"histogram\", "
      "\"count\": 3, \"sum\": 555, \"min\": 5, \"max\": 500, "
      "\"nan_rejected\": 0, \"buckets\": [{\"le\": 10, \"count\": 1}, "
      "{\"le\": 100, \"count\": 2}, {\"le\": \"+Inf\", \"count\": 3}]}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(to_json(golden_snapshot()), expected);
}

TEST(Export, FileExtensionPicksFormat) {
  const std::string dir = ::testing::TempDir();
  const Snapshot snap = golden_snapshot();
  ASSERT_TRUE(write_metrics_file(dir + "/m.prom", snap));
  ASSERT_TRUE(write_metrics_file(dir + "/m.json", snap));
  EXPECT_FALSE(write_metrics_file("/nonexistent-vp-dir/m.json", snap));
}

// ---------------------------------------------------------------------
// Concurrency: many threads hammering one registry — handle creation,
// increments, observes, and snapshots all racing. Run under TSan in CI.

TEST(Registry, ConcurrentHammering) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter("vp_shared_total").add();
        reg.counter("vp_thread_total{t=\"" + std::to_string(t % 3) + "\"}")
            .add();
        reg.gauge("vp_gauge").set(static_cast<double>(i));
        reg.histogram("vp_hist_ms", std::vector<double>{1, 10, 100})
            .observe(static_cast<double>(i % 200));
        if (i % 500 == 0) (void)reg.snapshot();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("vp_shared_total").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("vp_hist_ms", std::vector<double>{1, 10, 100})
                .count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace vp::obs
