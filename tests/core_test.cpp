#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

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
      for (const auto& [block, site] : sequential[r].map.entries()) {
        EXPECT_EQ(concurrent[r].map.site_of(block), site);
        EXPECT_EQ(concurrent[r].map.rtt_of(block),
                  sequential[r].map.rtt_of(block));
      }
    }
  }
}

TEST(CatchmentMap, SiteOfUnknownBlock) {
  CatchmentMap map;
  EXPECT_EQ(map.site_of(net::Block24{1}), anycast::kUnknownSite);
  EXPECT_EQ(map.rtt_of(net::Block24{1}), 0.0f);
  EXPECT_TRUE(map.set(net::Block24{1}, 0, 12.5f));
  EXPECT_EQ(map.site_of(net::Block24{1}), 0);
  EXPECT_TRUE(map.contains(net::Block24{1}));
  // First write wins (duplicate replies never overwrite), RTT included.
  EXPECT_FALSE(map.set(net::Block24{1}, 1, 99.0f));
  EXPECT_EQ(map.site_of(net::Block24{1}), 0);
  EXPECT_EQ(map.rtt_of(net::Block24{1}), 12.5f);
  // kUnknownSite means unmapped, so it cannot be set.
  EXPECT_FALSE(map.set(net::Block24{2}, anycast::kUnknownSite, 1.0f));
  EXPECT_FALSE(map.contains(net::Block24{2}));
  EXPECT_EQ(map.mapped_blocks(), 1u);
}

/// Blocks spread over several /8s, one /8 holding a run of neighbours.
std::vector<net::Block24> spread_blocks() {
  std::vector<net::Block24> blocks;
  for (const std::uint32_t index :
       {0x000000u, 0x00ffffu, 0x010000u, 0x7f1234u, 0xfffffeu, 0xffffffu})
    blocks.emplace_back(index);
  for (std::uint32_t i = 0; i < 300; ++i) blocks.emplace_back(0x2a0000 + 7 * i);
  return blocks;
}

TEST(CatchmentMap, IteratesInAscendingBlockOrderWhateverTheInsertOrder) {
  std::vector<net::Block24> blocks = spread_blocks();
  std::sort(blocks.begin(), blocks.end());
  std::vector<net::Block24> descending(blocks.rbegin(), blocks.rend());
  std::vector<net::Block24> shuffled = blocks;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937{7});
  for (const auto* order : {&blocks, &descending, &shuffled}) {
    CatchmentMap map;
    for (const net::Block24 block : *order)
      map.set(block, static_cast<anycast::SiteId>(block.index() % 5));
    std::vector<net::Block24> seen;
    for (const auto& [block, site] : map.entries()) {
      EXPECT_EQ(site, static_cast<anycast::SiteId>(block.index() % 5));
      seen.push_back(block);
    }
    EXPECT_EQ(seen, blocks);
    EXPECT_EQ(map.mapped_blocks(), blocks.size());
  }
}

TEST(CatchmentMap, EqualityDoesNotDependOnInsertOrder) {
  const std::vector<net::Block24> blocks = spread_blocks();
  const net::Block24 odd = blocks.back();
  const float odd_rtt = static_cast<float>(odd.index() % 97);
  // Every block goes to site 1 with RTT index % 97, except that `odd`
  // gets the given site and RTT.
  const auto build = [&](bool reversed, anycast::SiteId odd_site,
                         float rtt) {
    CatchmentMap map;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const net::Block24 block = blocks[reversed ? blocks.size() - 1 - i : i];
      map.set(block, block == odd ? odd_site : anycast::SiteId{1},
              block == odd ? rtt : static_cast<float>(block.index() % 97));
    }
    return map;
  };
  const CatchmentMap forward = build(false, 1, odd_rtt);
  EXPECT_TRUE(forward == build(true, 1, odd_rtt));
  // Copies are equal and independent; one differing site, RTT, block or
  // counter breaks equality.
  CatchmentMap copy = forward;
  EXPECT_TRUE(copy == forward);
  EXPECT_FALSE(build(false, 2, odd_rtt) == forward);
  EXPECT_FALSE(build(false, 1, odd_rtt + 0.5f) == forward);
  copy.set(net::Block24{0x2a0001}, 1);
  EXPECT_FALSE(copy == forward);
  CatchmentMap counters = forward;
  counters.cleaning.kept = 1;
  EXPECT_FALSE(counters == forward);
}

TEST(CatchmentMap, DistantBlocksCostTwoPagesNotTheSpan) {
  CatchmentMap map;
  EXPECT_EQ(map.bytes(), 0u);
  map.set(net::Block24{0x010000}, 0);
  const std::size_t page = map.bytes();  // 320 KB: a site and an RTT column
  EXPECT_GE(page, 65536u * (sizeof(anycast::SiteId) + sizeof(float)));
  EXPECT_LT(page, 65536u * (sizeof(anycast::SiteId) + sizeof(float)) + 64);
  map.set(net::Block24{0x01ffff}, 0);  // same /8: no new page
  EXPECT_EQ(map.bytes(), page);
  map.set(net::Block24{0xfe0000}, 1);  // 253 /8s away: one more page
  EXPECT_EQ(map.bytes(), 2 * page);
}

}  // namespace
}  // namespace vp::core
