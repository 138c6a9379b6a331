#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/byte_codec.hpp"
#include "util/clock.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace vp::util {
namespace {

// --- rng -------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a{123}, b{123};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BelowIsUniformAndBounded) {
  Rng rng{9};
  std::array<int, 10> buckets{};
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (const int count : buckets) EXPECT_NEAR(count, 10000, 600);
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng{5};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng{11};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng rng{13};
  for (int i = 0; i < 10000; ++i) ASSERT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng{17};
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 100000.0, 5.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng rng{19};
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ToUnitTakesTheTop53Bits) {
  EXPECT_EQ(to_unit(0), 0.0);
  EXPECT_EQ(to_unit(std::uint64_t{1} << 11), 0x1.0p-53);
  EXPECT_LT(to_unit(~std::uint64_t{0}), 1.0);
  Rng a{5};
  Rng b{5};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), to_unit(b()));
}

TEST(Hashing, MixAndCombineAreStable) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// --- stats -----------------------------------------------------------------

TEST(Stats, OnlineStatsMatchesClosedForm) {
  OnlineStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Stats, PercentileEdges) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(Stats, PercentileSingleton) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 30), 7.0);
}

TEST(Stats, PercentileEmptyIsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, SummaryIsOrdered) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const PercentileSummary s = summarize(v);
  EXPECT_LE(s.p5, s.p25);
  EXPECT_LE(s.p25, s.p50);
  EXPECT_LE(s.p50, s.p75);
  EXPECT_LE(s.p75, s.p95);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
}

// --- format ----------------------------------------------------------------

TEST(Format, SiCount) {
  EXPECT_EQ(si_count(0), "0");
  EXPECT_EQ(si_count(999), "999");
  EXPECT_EQ(si_count(1234), "1.23k");
  EXPECT_EQ(si_count(27100), "27.1k");
  EXPECT_EQ(si_count(3786907), "3.79M");
  EXPECT_EQ(si_count(2.34e9), "2.34G");
}

TEST(Format, Percent) {
  EXPECT_EQ(percent(0.824), "82.4%");
  EXPECT_EQ(percent(1.0), "100.0%");
  EXPECT_EQ(percent(0.0), "0.0%");
}

TEST(Format, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(3786907), "3,786,907");
  EXPECT_EQ(with_commas(1234567890), "1,234,567,890");
}

TEST(Format, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-1.5, 0), "-2");  // round-to-even via printf
}

// --- table -----------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t{{"name", "count"}, {Align::kLeft, Align::kRight}};
  t.add_row({"a", "1"});
  t.add_row({"longer", "12345"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name    count"), std::string::npos);
  EXPECT_NE(out.find("a           1"), std::string::npos);
  EXPECT_NE(out.find("longer  12345"), std::string::npos);
}

TEST(Table, SeparatorRendersDashes) {
  Table t{{"x"}};
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.to_string();
  // Header separator + explicit separator.
  EXPECT_GE(std::count(out.begin(), out.end(), '-'), 2);
}

TEST(Table, ShortRowsArePadded) {
  Table t{{"a", "b", "c"}};
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

// --- clock -----------------------------------------------------------------

TEST(Clock, SimTimeArithmetic) {
  const SimTime t = SimTime::from_minutes(15);
  EXPECT_EQ(t.usec, 15ll * 60 * 1000000);
  EXPECT_DOUBLE_EQ(t.seconds(), 900.0);
  EXPECT_DOUBLE_EQ((t + t).minutes(), 30.0);
  EXPECT_DOUBLE_EQ(SimTime::from_hours(2).hours(), 2.0);
}

TEST(Clock, FormatHms) {
  EXPECT_EQ(format_hms(SimTime::from_hours(1) + SimTime::from_minutes(2) +
                       SimTime::from_seconds(3)),
            "01:02:03");
}

// --- byte codec -----------------------------------------------------------

TEST(ByteCodec, RoundTripsLittleEndian) {
  std::string out;
  put_le(out, std::uint8_t{0xab});
  put_le(out, std::uint16_t{0x1234});
  put_le(out, std::uint32_t{0xdeadbeef});
  put_le(out, std::int64_t{-2});
  put_le(out, 1.5f);
  put_le(out, -0.25);
  ASSERT_EQ(out.size(), 1u + 2 + 4 + 8 + 4 + 8);
  EXPECT_EQ(out.substr(1, 6), std::string("\x34\x12\xef\xbe\xad\xde", 6));
  ByteReader in{out};
  EXPECT_EQ(in.get<std::uint8_t>(), 0xab);
  EXPECT_EQ(in.get<std::uint16_t>(), 0x1234);
  EXPECT_EQ(in.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(in.get<std::int64_t>(), -2);
  EXPECT_EQ(in.get<float>(), 1.5f);
  EXPECT_EQ(in.get<double>(), -0.25);
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(in.left(), 0u);
}

TEST(ByteCodec, ShortReadsLatchAndReturnZero) {
  const std::string bytes{"\x01\x02\x03", 3};
  ByteReader in{bytes};
  EXPECT_TRUE(in.take(3));
  EXPECT_FALSE(in.take(4));  // refused before anything is read
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.get<std::uint8_t>(), 0);
  ByteReader again{bytes};
  EXPECT_EQ(again.bytes(2), "\x01\x02");
  EXPECT_EQ(again.get<std::uint16_t>(), 0);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.bytes(1), "");
}

// --- fork-join threads ---------------------------------------------------

TEST(Threads, ResolveThreadsKnob) {
  EXPECT_GE(resolve_threads(0), 1u);  // 0 = hardware concurrency, at least 1
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_EQ(resolve_threads(100000), 256u);  // capped
}

TEST(RunShards, EveryShardRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(8);
  run_shards(8, [&hits](unsigned shard) {
    hits[shard].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunShards, SingleShardRunsInline) {
  const auto caller = std::this_thread::get_id();
  run_shards(1, [caller](unsigned shard) {
    EXPECT_EQ(shard, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(RunShards, PropagatesWorkerException) {
  EXPECT_THROW(run_shards(4,
                          [](unsigned shard) {
                            if (shard == 2) throw std::runtime_error("boom");
                          }),
               std::runtime_error);
}

TEST(ParallelFor, ChunksCoverRangeExactlyOnce) {
  // Every index in [0, count) must be visited once, for chunk counts that
  // divide evenly, unevenly, and exceed the range.
  for (const unsigned threads : {1u, 3u, 8u, 100u}) {
    const std::size_t count = 37;
    std::vector<std::atomic<int>> visits(count);
    parallel_for(count, threads,
                 [&visits](std::size_t begin, std::size_t end) {
                   ASSERT_LE(begin, end);
                   for (std::size_t i = begin; i < end; ++i)
                     visits[i].fetch_add(1, std::memory_order_relaxed);
                 });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  parallel_for(0, 8, [](std::size_t, std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace vp::util
