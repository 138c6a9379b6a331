#include <gtest/gtest.h>

#include "analysis/catchment_diff.hpp"
#include "analysis/load_analysis.hpp"
#include "analysis/scenario.hpp"

namespace vp::analysis {
namespace {

class DiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config;
    config.seed = 9;
    config.scale = 0.08;
    scenario_ = new Scenario(config);
    load_ = new dnsload::LoadModel(scenario_->broot_load(1));
  }
  static void TearDownTestSuite() {
    delete load_;
    delete scenario_;
  }
  static const Scenario& scenario() { return *scenario_; }
  static const dnsload::LoadModel& load() { return *load_; }

  static core::CatchmentMap measure(const anycast::Deployment& deployment,
                                    std::uint64_t epoch,
                                    std::uint32_t round) {
    const auto routes_ptr = scenario().route(deployment, epoch);
    const auto& routes = *routes_ptr;
    core::ProbeConfig probe;
    probe.measurement_id = 100 + round;
    return scenario().engine().run(routes, {probe, round}).map;
  }

 private:
  static Scenario* scenario_;
  static dnsload::LoadModel* load_;
};

Scenario* DiffTest::scenario_ = nullptr;
dnsload::LoadModel* DiffTest::load_ = nullptr;

TEST_F(DiffTest, IdenticalMapsProduceNoMoves) {
  const auto map = measure(scenario().broot(), kMayEpoch, 0);
  const auto diff =
      diff_catchments(scenario().topo(), map, map, load());
  EXPECT_EQ(diff.moved_blocks, 0u);
  EXPECT_EQ(diff.appeared_blocks, 0u);
  EXPECT_EQ(diff.vanished_blocks, 0u);
  EXPECT_EQ(diff.stable_blocks, map.mapped_blocks());
  EXPECT_DOUBLE_EQ(diff.moved_fraction(), 0.0);
  EXPECT_TRUE(diff.flows.empty());
}

TEST_F(DiffTest, EpochChangeMovesSomeBlocks) {
  const auto april = measure(scenario().broot(), kAprilEpoch, 1);
  const auto may = measure(scenario().broot(), kMayEpoch, 2);
  const auto diff =
      diff_catchments(scenario().topo(), april, may, load());
  // Routing epochs differ (§5.5): some, but not most, blocks move.
  EXPECT_GT(diff.moved_blocks, 0u);
  EXPECT_LT(diff.moved_fraction(), 0.4);
  EXPECT_GT(diff.stable_blocks, diff.moved_blocks);
  // Churn shows up as appeared/vanished, not moves.
  EXPECT_GT(diff.appeared_blocks, 0u);
  EXPECT_GT(diff.vanished_blocks, 0u);
  // Flows account for every move.
  std::uint64_t flow_blocks = 0;
  for (const auto& flow : diff.flows) {
    EXPECT_NE(flow.from, flow.to);
    flow_blocks += flow.blocks;
  }
  EXPECT_EQ(flow_blocks, diff.moved_blocks);
  // Top-AS list is sorted (moved blocks descending, ties by ASN
  // ascending, so hash order never picks which tied ASes make the cut)
  // and bounded.
  ASSERT_FALSE(diff.top_ases.empty());
  bool tied = false;
  for (std::size_t i = 1; i < diff.top_ases.size(); ++i) {
    const MovedAs& prev = diff.top_ases[i - 1];
    const MovedAs& cur = diff.top_ases[i];
    tied = tied || prev.moved_blocks == cur.moved_blocks;
    EXPECT_TRUE(prev.moved_blocks > cur.moved_blocks ||
                (prev.moved_blocks == cur.moved_blocks && prev.asn < cur.asn))
        << "rank " << i;
  }
  EXPECT_TRUE(tied) << "fixture no longer exercises the tie-break";
}

TEST_F(DiffTest, PrependingMovesTrafficTowardTheExpectedSite) {
  const auto before = measure(scenario().broot(), kAprilEpoch, 3);
  const auto after = measure(
      scenario().broot().with_prepend("MIA", 2), kAprilEpoch, 3);
  const auto diff =
      diff_catchments(scenario().topo(), before, after, load());
  // MIA+2 pushes blocks MIA -> LAX; the dominant flow must be that pair.
  ASSERT_FALSE(diff.flows.empty());
  const auto lax = *scenario().broot().site_by_code("LAX");
  const auto mia = *scenario().broot().site_by_code("MIA");
  EXPECT_EQ(diff.flows[0].from, mia);
  EXPECT_EQ(diff.flows[0].to, lax);
  EXPECT_GT(diff.flows[0].daily_queries, 0.0);
}

TEST_F(DiffTest, GoodReplyWeightingDiffersFromQueryWeighting) {
  const auto map = measure(scenario().broot(), kMayEpoch, 0);
  const auto by_queries =
      predict_load(load(), map, 2, LoadWeight::kQueries);
  const auto by_good =
      predict_load(load(), map, 2, LoadWeight::kGoodReplies);
  // Good replies are a strict subset of queries...
  EXPECT_LT(by_good.total(true), by_queries.total(true));
  EXPECT_NEAR(by_good.total(true) / by_queries.total(true),
              load().total_daily_good_replies() /
                  load().total_daily_queries(),
              0.05);
  // ...and the split is similar but not identical (per-block good
  // fractions vary), so the optimization target matters (§3.2).
  EXPECT_NEAR(by_good.fraction_to(0), by_queries.fraction_to(0), 0.1);
  EXPECT_NE(by_good.fraction_to(0), by_queries.fraction_to(0));
}

}  // namespace
}  // namespace vp::analysis
