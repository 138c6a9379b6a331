#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "core/campaign.hpp"
#include "core/probe_engine.hpp"

namespace vp::core {
namespace {

/// One shared small scenario; building it is the expensive part.
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 77;
    config.scale = 0.08;  // ~10k blocks
    scenario_ = new analysis::Scenario(config);
    routes_ = scenario_->route(scenario_->broot());
    ProbeConfig probe;
    probe.measurement_id = 500;
    round_ = new RoundResult(
        scenario_->engine().run(*routes_, {probe, 0}));
  }
  static void TearDownTestSuite() {
    delete round_;
    routes_.reset();
    delete scenario_;
  }
  static const analysis::Scenario& scenario() { return *scenario_; }
  static const bgp::RoutingTable& routes() { return *routes_; }
  static const RoundResult& round() { return *round_; }

 private:
  static analysis::Scenario* scenario_;
  static std::shared_ptr<const bgp::RoutingTable> routes_;
  static RoundResult* round_;
};

analysis::Scenario* CoreTest::scenario_ = nullptr;
std::shared_ptr<const bgp::RoutingTable> CoreTest::routes_;
RoundResult* CoreTest::round_ = nullptr;

TEST_F(CoreTest, ProbesEveryHitlistEntryOnce) {
  EXPECT_EQ(round().map.probes_sent, scenario().hitlist().size());
  EXPECT_EQ(round().map.blocks_probed, scenario().hitlist().size());
}

TEST_F(CoreTest, MappedBlocksAreSubsetOfProbed) {
  EXPECT_LE(round().map.mapped_blocks(), round().map.blocks_probed);
  EXPECT_GT(round().map.mapped_blocks(), round().map.blocks_probed / 3);
  for (const auto& [block, site] : round().map.entries()) {
    EXPECT_NE(scenario().topo().block_info(block), nullptr);
    EXPECT_GE(site, 0);
    EXPECT_LT(site, static_cast<int>(scenario().broot().sites.size()));
  }
}

TEST_F(CoreTest, MeasuredCatchmentsMatchGroundTruth) {
  // The headline validation: Verfploeter discovers catchments without
  // reading the routing table, yet agrees with it everywhere.
  for (const auto& [block, site] : round().map.entries()) {
    EXPECT_EQ(site,
              scenario().internet().ground_truth_site(routes(), block, 0))
        << block.to_string();
  }
}

TEST_F(CoreTest, CleaningStatsAreConsistent) {
  const CleaningStats& s = round().map.cleaning;
  EXPECT_EQ(s.kept, round().map.mapped_blocks());
  EXPECT_EQ(s.raw_replies, s.kept + s.dropped());
  EXPECT_EQ(s.wrong_id, 0u);  // single round, no stale traffic
  EXPECT_GT(s.duplicates, 0u);
  EXPECT_GT(s.unsolicited, 0u);
  EXPECT_GT(s.late, 0u);
  // Duplicates are a small percentage of replies (paper: ~2%).
  EXPECT_LT(static_cast<double>(s.duplicates),
            0.06 * static_cast<double>(s.raw_replies));
}

TEST_F(CoreTest, RawRepliesPerSiteSumToTotal) {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : round().raw_replies_per_site) sum += n;
  EXPECT_EQ(sum + round().map.cleaning.malformed,
            round().map.cleaning.raw_replies);
}

TEST_F(CoreTest, ProbingDurationMatchesRate) {
  // 10k pps over ~10k probes: ~1 second of virtual time.
  const double expected =
      static_cast<double>(round().map.probes_sent) / 10'000.0;
  EXPECT_NEAR(round().probing_duration.seconds(), expected, expected * 0.01);
}

TEST_F(CoreTest, RoundIsDeterministic) {
  ProbeConfig probe;
  probe.measurement_id = 500;
  const RoundResult again =
      scenario().engine().run(routes(), {probe, 0});
  EXPECT_EQ(again.map.mapped_blocks(), round().map.mapped_blocks());
  for (const auto& [block, site] : round().map.entries())
    EXPECT_EQ(again.map.site_of(block), site);
}

TEST_F(CoreTest, DifferentRoundsDifferSlightly) {
  ProbeConfig probe;
  probe.measurement_id = 501;
  const RoundResult other =
      scenario().engine().run(routes(), {probe, 1});
  // Churn means the two rounds map a slightly different set.
  std::size_t differing = 0;
  for (const auto& [block, site] : round().map.entries())
    if (!other.map.contains(block)) ++differing;
  EXPECT_GT(differing, 0u);
  EXPECT_LT(differing, round().map.mapped_blocks() / 10);
}

TEST_F(CoreTest, ExtraTargetsImproveCoverage) {
  ProbeConfig probe;
  probe.measurement_id = 600;
  probe.extra_targets_per_block = 3;
  const RoundResult retried =
      scenario().engine().run(routes(), {probe, 0});
  EXPECT_GT(retried.map.mapped_blocks(), round().map.mapped_blocks());
  EXPECT_GT(retried.map.probes_sent, round().map.probes_sent * 3);
}

TEST_F(CoreTest, PerSiteCountsSumToMapped) {
  const auto counts =
      round().map.per_site_counts(scenario().broot().sites.size());
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts) sum += c;
  EXPECT_EQ(sum, round().map.mapped_blocks());
  EXPECT_GT(counts[0], counts[1]);  // LAX dominates
}

TEST_F(CoreTest, FractionToSitesSumsToOne) {
  const double lax = round().map.fraction_to(0);
  const double mia = round().map.fraction_to(1);
  EXPECT_NEAR(lax + mia, 1.0, 1e-9);
  EXPECT_GT(lax, 0.5);
}

TEST_F(CoreTest, CampaignProducesDistinctRounds) {
  ProbeConfig probe;
  probe.measurement_id = 700;
  const auto rounds = Campaign{scenario().engine(), routes()}
                          .probe(probe)
                          .rounds(4)
                          .interval(util::SimTime::from_minutes(15))
                          .run();
  ASSERT_EQ(rounds.size(), 4u);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(rounds[r].map.measurement_id, 700u + r);
    EXPECT_EQ(rounds[r].started.usec,
              util::SimTime::from_minutes(15).usec * static_cast<int>(r));
    EXPECT_GT(rounds[r].map.mapped_blocks(), 0u);
  }
}

TEST_F(CoreTest, ConcurrentCampaignMatchesSequentialInRoundOrder) {
  // Rounds completing out of order under concurrency > 1 must still land
  // in round order and match the sequential run exactly — this is the
  // determinism the campaign journal's resume guarantee rests on.
  ProbeConfig probe;
  probe.measurement_id = 800;
  const auto make = [&](unsigned concurrency) {
    return Campaign{scenario().engine(), routes()}
        .probe(probe)
        .rounds(5)
        .interval(util::SimTime::from_minutes(15))
        .concurrency(concurrency)
        .run();
  };
  const auto sequential = make(1);
  for (const unsigned concurrency : {2u, 5u}) {
    const auto concurrent = make(concurrency);
    ASSERT_EQ(concurrent.size(), sequential.size());
    for (std::size_t r = 0; r < sequential.size(); ++r) {
      // Round order, not completion order.
      EXPECT_EQ(concurrent[r].map.measurement_id, 800u + r);
      EXPECT_EQ(concurrent[r].map.mapped_blocks(),
                sequential[r].map.mapped_blocks());
      EXPECT_EQ(concurrent[r].map.cleaning.raw_replies,
                sequential[r].map.cleaning.raw_replies);
      EXPECT_EQ(concurrent[r].map.cleaning.kept,
                sequential[r].map.cleaning.kept);
      EXPECT_EQ(concurrent[r].raw_replies_per_site,
                sequential[r].raw_replies_per_site);
      for (const auto& [block, site] : sequential[r].map.entries())
        EXPECT_EQ(concurrent[r].map.site_of(block), site);
      for (const auto& [block, rtt] : sequential[r].rtt_ms) {
        ASSERT_TRUE(concurrent[r].rtt_ms.count(block));
        EXPECT_EQ(concurrent[r].rtt_ms.at(block), rtt);
      }
    }
  }
}

TEST(CatchmentMap, SiteOfUnknownBlock) {
  CatchmentMap map;
  EXPECT_EQ(map.site_of(net::Block24{1}), anycast::kUnknownSite);
  map.set(net::Block24{1}, 0);
  EXPECT_EQ(map.site_of(net::Block24{1}), 0);
  EXPECT_TRUE(map.contains(net::Block24{1}));
  // First write wins (duplicate replies never overwrite).
  map.set(net::Block24{1}, 1);
  EXPECT_EQ(map.site_of(net::Block24{1}), 0);
}

}  // namespace
}  // namespace vp::core
