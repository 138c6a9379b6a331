// The parallel probe engine's core guarantee: for a fixed RoundSpec, the
// result is bit-identical no matter how many worker shards probe it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/campaign.hpp"
#include "core/cleaning.hpp"
#include "core/probe_engine.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_injector.hpp"
#include "util/rng.hpp"
#include "util/round_arena.hpp"

namespace vp::core {
namespace {

class ProbeEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 77;
    config.scale = 0.08;  // ~10k blocks
    scenario_ = new analysis::Scenario(config);
    routes_ = scenario_->route(scenario_->broot());
  }
  static void TearDownTestSuite() {
    routes_.reset();
    delete scenario_;
  }
  static const analysis::Scenario& scenario() { return *scenario_; }
  static const bgp::RoutingTable& routes() { return *routes_; }

 private:
  static analysis::Scenario* scenario_;
  static std::shared_ptr<const bgp::RoutingTable> routes_;
};

analysis::Scenario* ProbeEngineTest::scenario_ = nullptr;
std::shared_ptr<const bgp::RoutingTable> ProbeEngineTest::routes_;

void expect_identical(const RoundResult& a, const RoundResult& b,
                      const char* label) {
  // CatchmentMap: counters, then the full block -> (site, RTT) table
  // (bit-exact float compare on purpose: the parallel engine must build
  // the very same packets with the very same timestamps).
  EXPECT_EQ(a.map.probes_sent, b.map.probes_sent) << label;
  EXPECT_EQ(a.map.blocks_probed, b.map.blocks_probed) << label;
  EXPECT_EQ(a.map.measurement_id, b.map.measurement_id) << label;
  EXPECT_TRUE(a.map == b.map) << label;
  // CleaningStats, field by field.
  EXPECT_EQ(a.map.cleaning.raw_replies, b.map.cleaning.raw_replies) << label;
  EXPECT_EQ(a.map.cleaning.malformed, b.map.cleaning.malformed) << label;
  EXPECT_EQ(a.map.cleaning.wrong_id, b.map.cleaning.wrong_id) << label;
  EXPECT_EQ(a.map.cleaning.unsolicited, b.map.cleaning.unsolicited) << label;
  EXPECT_EQ(a.map.cleaning.duplicates, b.map.cleaning.duplicates) << label;
  EXPECT_EQ(a.map.cleaning.late, b.map.cleaning.late) << label;
  EXPECT_EQ(a.map.cleaning.kept, b.map.cleaning.kept) << label;
  // Raw per-site volumes and timing.
  EXPECT_EQ(a.raw_replies_per_site, b.raw_replies_per_site) << label;
  EXPECT_EQ(a.started, b.started) << label;
  EXPECT_EQ(a.probing_duration, b.probing_duration) << label;
}

TEST_F(ProbeEngineTest, ParallelRoundIsBitIdenticalToSerial) {
  RoundSpec spec;
  spec.probe.measurement_id = 4100;
  spec.round = 3;
  spec.start = util::SimTime::from_minutes(45);

  spec.threads = 1;
  const RoundResult serial = scenario().engine().run(routes(), spec);
  EXPECT_GT(serial.map.mapped_blocks(), 0u);

  for (const unsigned threads : {2u, 8u}) {
    spec.threads = threads;
    const RoundResult parallel =
        scenario().engine().run(routes(), spec);
    expect_identical(serial, parallel,
                     threads == 2 ? "2 threads" : "8 threads");
  }
}

TEST_F(ProbeEngineTest, ThreadCountBeyondEntriesIsHarmless) {
  RoundSpec spec;
  spec.probe.measurement_id = 4300;
  spec.threads = 64;
  const RoundResult wide = scenario().engine().run(routes(), spec);
  spec.threads = 1;
  const RoundResult serial = scenario().engine().run(routes(), spec);
  expect_identical(serial, wide, "64 threads");
}

TEST_F(ProbeEngineTest, ConcurrentCampaignMatchesSequential) {
  ProbeConfig probe;
  probe.measurement_id = 4400;
  const auto sequential = Campaign{scenario().engine(), routes()}
                              .probe(probe)
                              .rounds(4)
                              .interval(util::SimTime::from_minutes(15))
                              .run();
  const auto concurrent = Campaign{scenario().engine(), routes()}
                              .probe(probe)
                              .rounds(4)
                              .interval(util::SimTime::from_minutes(15))
                              .concurrency(4)
                              .threads(2)
                              .run();
  ASSERT_EQ(sequential.size(), concurrent.size());
  for (std::size_t r = 0; r < sequential.size(); ++r)
    expect_identical(sequential[r], concurrent[r], "campaign round");
}

/// Observer that tallies callbacks; shared across threads in the
/// concurrent-campaign test above via the engine's serialization.
class RecordingObserver : public RoundObserver {
 public:
  void on_probe_progress(const RoundSpec&, std::uint64_t sent,
                         std::uint64_t total) override {
    last_sent = sent;
    last_total = total;
    ++progress_calls;
  }
  void on_round_complete(const RoundSpec& spec,
                         const RoundResult& result) override {
    ++complete_calls;
    completed_round = spec.round;
    kept = result.map.cleaning.kept;
    collected = result.raw_replies_per_site;
  }
  void on_metrics(const RoundSpec&, const RoundMetrics& m) override {
    metrics = m;
  }

  RoundMetrics metrics;
  std::uint64_t last_sent = 0;
  std::uint64_t last_total = 0;
  int progress_calls = 0;
  int complete_calls = 0;
  std::uint32_t completed_round = 0;
  std::uint64_t kept = 0;
  std::vector<std::uint64_t> collected;
};

/// A scenario wide enough to span two /8 map pages and many probe runs,
/// so the thread sweep moves both the run claims and the cleaning ranges.
class ProbeEngineWideTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 78;
    config.scale = 0.6;  // ~72k blocks over 1.0.0.0/8 and 2.0.0.0/8
    scenario_ = new analysis::Scenario(config);
    routes_ = scenario_->route(scenario_->broot());
  }
  static void TearDownTestSuite() {
    routes_.reset();
    delete scenario_;
  }
  static const analysis::Scenario& scenario() { return *scenario_; }
  static const bgp::RoutingTable& routes() { return *routes_; }

 private:
  static analysis::Scenario* scenario_;
  static std::shared_ptr<const bgp::RoutingTable> routes_;
};

analysis::Scenario* ProbeEngineWideTest::scenario_ = nullptr;
std::shared_ptr<const bgp::RoutingTable> ProbeEngineWideTest::routes_;

TEST_F(ProbeEngineWideTest, ThreadSweepNeverChangesTheResult) {
  // Which worker claims which run, and which /8 pages each worker
  // cleans, both follow the thread count; neither may change a byte,
  // clean or faulted with retries.
  const sim::FaultInjector faults{sim::FaultPlan::from_seed(9001)};
  const RoundResult plain = scenario().engine().run(routes(), {});
  std::uint32_t pages = 0;
  for (const auto& [block, site] : plain.map.entries())
    pages |= 1u << std::min<std::uint32_t>(block.index() >> 16, 31);
  ASSERT_GE(std::popcount(pages), 2) << "the sweep needs two map pages";
  for (const bool faulted : {false, true}) {
    RoundSpec spec;
    spec.probe.measurement_id = faulted ? 4650 : 4600;
    spec.round = 2;
    spec.start = util::SimTime::from_minutes(30);
    if (faulted) {
      spec.faults = &faults;
      spec.probe.max_retries = 2;
    }

    spec.threads = 1;
    const RoundResult baseline = scenario().engine().run(routes(), spec);
    EXPECT_GT(baseline.map.mapped_blocks(), 0u);
    EXPECT_GT(baseline.map.cleaning.duplicates, 0u);

    for (const unsigned threads : {2u, 3u, 5u, 8u, 13u}) {
      spec.threads = threads;
      const RoundResult swept = scenario().engine().run(routes(), spec);
      char label[64];
      std::snprintf(label, sizeof label, "%s threads=%u",
                    faulted ? "faulted" : "clean", threads);
      expect_identical(baseline, swept, label);
    }
  }
}

TEST_F(ProbeEngineTest, SteadyStateRoundsAreAllocationFreeInTheShardLoop) {
  // The cross-round arena exists so round N+1 probes into round N's
  // buffers. After a warm-up round has sized everything, later rounds of
  // a journaled campaign must not grow a single hot-loop vector:
  // vp_engine_hot_allocs_total (shard-loop buffer growths) stays flat
  // while vp_engine_arena_reuses_total keeps climbing.
  auto& registry = obs::metrics();
  obs::Counter& hot = registry.counter("vp_engine_hot_allocs_total");
  obs::Counter& reuses = registry.counter("vp_engine_arena_reuses_total");

  /// Samples the allocation counters at every round completion so the
  /// per-round deltas of a sequential campaign can be asserted after
  /// run() returns.
  class AllocSampler : public RoundObserver {
   public:
    AllocSampler(const obs::Counter& hot, const obs::Counter& reuses)
        : hot_(&hot), reuses_(&reuses) {}
    void on_round_complete(const RoundSpec&, const RoundResult&) override {
      hot_after.push_back(hot_->value());
      reuses_after.push_back(reuses_->value());
    }
    std::vector<std::uint64_t> hot_after;
    std::vector<std::uint64_t> reuses_after;

   private:
    const obs::Counter* hot_;
    const obs::Counter* reuses_;
  };

  const std::string journal_path =
      "/tmp/vp_probe_engine_alloc_" +
      std::to_string(static_cast<long>(::getpid())) + ".bin";
  std::remove(journal_path.c_str());

  ProbeConfig probe;
  probe.measurement_id = 4700;
  AllocSampler sampler{hot, reuses};
  const auto report = Campaign{scenario().engine(), routes()}
                          .probe(probe)
                          .rounds(5)
                          .interval(util::SimTime::from_minutes(15))
                          .threads(2)
                          .journal(journal_path)
                          .observe(sampler)
                          .run_reported();
  std::remove(journal_path.c_str());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(sampler.hot_after.size(), 5u);

  // Round 1 starts cold and rounds 1-2 may still ratchet reply-buffer
  // capacities (reply counts vary slightly per round); from round 3 on
  // the arena is steady state and growth must be exactly zero.
  for (std::size_t r = 2; r < sampler.hot_after.size(); ++r)
    EXPECT_EQ(sampler.hot_after[r], sampler.hot_after[r - 1])
        << "round " << r + 1 << " grew a shard-loop buffer";
  // Every round after the first checked out a warm arena.
  EXPECT_GE(sampler.reuses_after.back() - sampler.reuses_after.front(), 4u);
}

TEST_F(ProbeEngineTest, ObserverSeesConsistentCounts) {
  RoundSpec spec;
  spec.probe.measurement_id = 4500;
  spec.round = 2;
  spec.threads = 4;
  RecordingObserver observer;
  const RoundResult result =
      scenario().engine().run(routes(), spec, &observer);

  EXPECT_GE(observer.progress_calls, 1);
  EXPECT_EQ(observer.last_sent, result.map.probes_sent);
  EXPECT_EQ(observer.last_total, result.map.probes_sent);
  EXPECT_EQ(observer.collected, result.raw_replies_per_site);
  EXPECT_EQ(observer.complete_calls, 1);
  EXPECT_EQ(observer.completed_round, 2u);
  EXPECT_EQ(observer.kept, result.map.cleaning.kept);
  // The live report's RTT percentiles are the kept RTTs' order statistics
  // at ranks round(p * (n - 1)), whichever worker kept them.
  std::vector<float> rtts;
  for (const auto& [block, site] : result.map.entries())
    rtts.push_back(result.map.rtt_of(block));
  std::sort(rtts.begin(), rtts.end());
  ASSERT_GT(rtts.size(), 1u);
  const auto rank = [&rtts](double p) {
    return static_cast<std::size_t>(p * static_cast<double>(rtts.size() - 1) +
                                    0.5);
  };
  EXPECT_EQ(observer.metrics.replies_kept, rtts.size());
  EXPECT_EQ(observer.metrics.rtt_p50_ms, rtts[rank(0.50)]);
  EXPECT_EQ(observer.metrics.rtt_p95_ms, rtts[rank(0.95)]);
}

// ---- the per-block first-reply reduction --------------------------------

/// One reply of the synthetic rounds below, as the reference sees it.
struct RefRow {
  std::int64_t arrival = 0;
  std::int64_t tx = 0;
  std::uint64_t key = 0;
  std::uint32_t source = 0;
  std::uint32_t mid = 0;
  std::uint16_t seq = 0;
  anycast::SiteId site = 0;
};

/// The cleaner the reduction replaced: every row in one array, sorted by
/// (arrival, site, key, seq), then first-reply-wins in that order.
CatchmentMap sort_then_first_wins(std::vector<RefRow> rows,
                                  const CleanFilter& filter) {
  std::sort(rows.begin(), rows.end(), [](const RefRow& a, const RefRow& b) {
    return std::tie(a.arrival, a.site, a.key, a.seq) <
           std::tie(b.arrival, b.site, b.key, b.seq);
  });
  CatchmentMap map;
  CleaningStats& stats = map.cleaning;
  for (const RefRow& row : rows) {
    if (row.mid != filter.measurement_id) {
      ++stats.wrong_id;
      continue;
    }
    if (row.arrival > filter.cutoff_usec) {
      ++stats.late;
      continue;
    }
    const std::size_t off =
        static_cast<std::size_t>((row.source >> 8) - filter.block_lo);
    if (off >= filter.block_span || filter.addr_by_block[off] != row.source) {
      ++stats.unsolicited;
      continue;
    }
    const float rtt = static_cast<float>(row.arrival - row.tx) / 1000.0f;
    if (map.set(net::Block24{row.source >> 8}, row.site, rtt))
      ++stats.kept;
    else
      ++stats.duplicates;
  }
  return map;
}

TEST(FirstReplyReduction, MatchesSortThenFirstWinsOnDenseTies) {
  // Seeded synthetic rounds, dense in every kind of tie the order has to
  // break: equal arrival across sites, equal arrival and site across
  // probes, several deliveries of one probe (same key, rising seq, each
  // with its own tx so the kept RTT tells them apart). Probed blocks
  // straddle a /8 edge, and some rows come from outside them: unprobed
  // hosts, blocks past either end of the span, other /8 pages. Rows are
  // shuffled over runs and cleaned under several page partitions.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng{seed};
    CleanFilter filter;
    filter.measurement_id = 7;
    filter.cutoff_usec = 4'000;
    filter.block_span = 32 + rng.below(96);
    const std::uint32_t edge = (2 + static_cast<std::uint32_t>(rng.below(3)))
                               << 16;
    filter.block_lo = edge - static_cast<std::uint32_t>(
                                 rng.below(filter.block_span + 1));
    std::vector<std::uint32_t> addr_by_block(filter.block_span, 0);
    for (std::size_t off = 0; off < addr_by_block.size(); ++off) {
      if (rng.below(10) == 0) continue;  // not probed
      addr_by_block[off] = (filter.block_lo + static_cast<std::uint32_t>(off))
                               << 8 |
                           static_cast<std::uint32_t>(1 + rng.below(250));
    }
    filter.addr_by_block = addr_by_block;

    // Few blocks per round, so probes pile onto the same block.
    const auto source_for = [&](std::size_t off) -> std::uint32_t {
      const std::uint32_t block =
          filter.block_lo + static_cast<std::uint32_t>(off);
      switch (rng.below(16)) {
        case 0:  // an unprobed host of the block
          return block << 8 | 252;
        case 1:  // just past the span's far end
          return (filter.block_lo +
                  static_cast<std::uint32_t>(filter.block_span)) << 8 | 9;
        case 2:  // just before it
          return (filter.block_lo - 1) << 8 | 9;
        case 3:  // another /8 page entirely
          return static_cast<std::uint32_t>(200 + rng.below(50)) << 24 | 77;
        default:
          return addr_by_block[off] != 0 ? addr_by_block[off]
                                         : block << 8 | 1;
      }
    };
    std::vector<RefRow> rows;
    const std::size_t probes = 40 + rng.below(200);
    const std::size_t hot_blocks = 1 + rng.below(filter.block_span / 2);
    // Keys are unique, like global probe indexes, but not emitted in order.
    std::vector<std::uint64_t> keys(probes);
    for (std::size_t k = 0; k < probes; ++k) keys[k] = k;
    for (std::size_t k = probes; k > 1; --k)
      std::swap(keys[k - 1], keys[rng.below(k)]);
    for (const std::uint64_t key : keys) {
      const std::size_t off = static_cast<std::size_t>(rng.below(hot_blocks)) *
                              filter.block_span / hot_blocks;
      const std::uint32_t source = source_for(off);
      const std::uint64_t deliveries = 1 + rng.below(3);
      for (std::uint16_t seq = 0; seq < deliveries; ++seq) {
        RefRow row;
        row.key = key;
        row.seq = seq;
        row.source = source;
        row.arrival = 1'000 * static_cast<std::int64_t>(rng.below(6));
        row.tx = -static_cast<std::int64_t>(rng.below(1u << 20));
        row.site = static_cast<anycast::SiteId>(rng.below(3));
        row.mid = rng.below(20) == 0 ? 6 : 7;
        rows.push_back(row);
      }
    }
    for (std::size_t i = rows.size(); i > 1; --i)
      std::swap(rows[i - 1], rows[rng.below(i)]);

    const CatchmentMap expected = sort_then_first_wins(rows, filter);
    ASSERT_GT(expected.cleaning.duplicates, 0u) << "seed " << seed;

    std::vector<ReplyRows> runs(1 + rng.below(5));
    for (const RefRow& row : rows)
      runs[rng.below(runs.size())].push(row.arrival, row.tx, row.key,
                                        row.source, row.mid, row.seq,
                                        row.site);
    const std::uint32_t edge_page = edge >> 16;
    const std::uint32_t partitions[][4] = {
        {0, 256, 256, 256},
        {0, edge_page, 256, 256},
        {0, edge_page - 1, edge_page + 1, 256},
        {0, static_cast<std::uint32_t>(1 + rng.below(255)), 256, 256},
    };
    for (const auto& bounds : partitions) {
      CatchmentMap map;
      std::vector<std::uint64_t> winners(filter.block_span);
      std::vector<float> rtts(filter.block_span);
      std::vector<float> kept_rtts;
      for (std::size_t p = 0; p + 1 < 4; ++p) {
        const PageClean part = clean_pages(runs, filter, bounds[p],
                                           bounds[p + 1], winners, rtts, map);
        map.cleaning.wrong_id += part.stats.wrong_id;
        map.cleaning.late += part.stats.late;
        map.cleaning.unsolicited += part.stats.unsolicited;
        map.cleaning.duplicates += part.stats.duplicates;
        map.cleaning.kept += part.stats.kept;
        kept_rtts.insert(kept_rtts.end(), part.rtts.begin(), part.rtts.end());
      }
      EXPECT_TRUE(map == expected)
          << "seed " << seed << ", pages split at " << bounds[1] << "/"
          << bounds[2] << ": kept " << map.cleaning.kept << " vs "
          << expected.cleaning.kept << ", duplicates "
          << map.cleaning.duplicates << " vs "
          << expected.cleaning.duplicates;
      // The RTTs come out in block order, one per kept block.
      std::vector<float> block_rtts;
      for (const auto& [block, site] : expected.entries())
        block_rtts.push_back(expected.rtt_of(block));
      EXPECT_EQ(kept_rtts, block_rtts) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace vp::core
