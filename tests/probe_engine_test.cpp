// The parallel probe engine's core guarantee: for a fixed RoundSpec, the
// result is bit-identical no matter how many worker shards probe it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/campaign.hpp"
#include "core/probe_engine.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_injector.hpp"
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

TEST_F(ProbeEngineTest, ParallelRoundIsBitIdenticalWithExtraTargets) {
  // Multi-target probing makes per-entry probe counts uneven, exercising
  // the prefix-sum shard boundaries.
  RoundSpec spec;
  spec.probe.measurement_id = 4200;
  spec.probe.extra_targets_per_block = 2;
  spec.round = 1;

  spec.threads = 1;
  const RoundResult serial = scenario().engine().run(routes(), spec);
  spec.threads = 8;
  const RoundResult parallel = scenario().engine().run(routes(), spec);
  expect_identical(serial, parallel, "extra targets, 8 threads");
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
  void on_replies_collected(
      const RoundSpec&, const std::vector<std::uint64_t>& per_site) override {
    collected = per_site;
  }
  void on_round_complete(const RoundSpec& spec,
                         const RoundResult& result) override {
    ++complete_calls;
    completed_round = spec.round;
    kept = result.map.cleaning.kept;
  }

  std::uint64_t last_sent = 0;
  std::uint64_t last_total = 0;
  int progress_calls = 0;
  int complete_calls = 0;
  std::uint32_t completed_round = 0;
  std::uint64_t kept = 0;
  std::vector<std::uint64_t> collected;
};

TEST_F(ProbeEngineTest, TileSizeNeverChangesTheResult) {
  // The block-range tiling is a pure walk-order optimization: every
  // packet field, timestamp, and fault draw is a function of the probe's
  // global index, so ANY tile size — one entry per tile, tiny tiles,
  // the LLC-sized default, or one tile per shard — must produce the
  // bit-identical round, clean and faulted, at any thread count.
  const sim::FaultInjector faults{sim::FaultPlan::from_seed(9001)};
  for (const bool faulted : {false, true}) {
    RoundSpec spec;
    spec.probe.measurement_id = faulted ? 4650 : 4600;
    spec.round = 2;
    spec.start = util::SimTime::from_minutes(30);
    if (faulted) spec.faults = &faults;

    spec.threads = 1;
    spec.tile_entries = 0;  // auto
    const RoundResult baseline = scenario().engine().run(routes(), spec);
    EXPECT_GT(baseline.map.mapped_blocks(), 0u);

    for (const unsigned threads : {1u, 4u, 8u}) {
      for (const std::uint32_t tile :
           {std::uint32_t{1}, std::uint32_t{4096}, std::uint32_t{65536},
            std::numeric_limits<std::uint32_t>::max()}) {
        spec.threads = threads;
        spec.tile_entries = tile;
        const RoundResult tiled = scenario().engine().run(routes(), spec);
        char label[64];
        std::snprintf(label, sizeof label, "%s threads=%u tile=%u",
                      faulted ? "faulted" : "clean", threads, tile);
        expect_identical(baseline, tiled, label);
      }
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
}

}  // namespace
}  // namespace vp::core
