#include <gtest/gtest.h>

#include "analysis/latency.hpp"
#include "analysis/scenario.hpp"

namespace vp::analysis {
namespace {

class LatencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config;
    config.seed = 3;
    config.scale = 0.08;
    scenario_ = new Scenario(config);
    routes_ = scenario_->route(scenario_->broot());
    core::ProbeConfig probe;
    probe.measurement_id = 60;
    round_ = new core::RoundResult(
        scenario_->engine().run(*routes_, {probe, 0}));
    load_ = new dnsload::LoadModel(scenario_->broot_load(1));
  }
  static void TearDownTestSuite() {
    delete load_;
    delete round_;
    routes_.reset();
    delete scenario_;
  }
  static const Scenario& scenario() { return *scenario_; }
  static const bgp::RoutingTable& routes() { return *routes_; }
  static const core::RoundResult& round() { return *round_; }
  static const dnsload::LoadModel& load() { return *load_; }

 private:
  static Scenario* scenario_;
  static std::shared_ptr<const bgp::RoutingTable> routes_;
  static core::RoundResult* round_;
  static dnsload::LoadModel* load_;
};

Scenario* LatencyTest::scenario_ = nullptr;
std::shared_ptr<const bgp::RoutingTable> LatencyTest::routes_;
core::RoundResult* LatencyTest::round_ = nullptr;
dnsload::LoadModel* LatencyTest::load_ = nullptr;

TEST_F(LatencyTest, EveryMappedBlockHasAnRtt) {
  EXPECT_GT(round().map.mapped_blocks(), 0u);
  for (const auto& [block, site] : round().map.entries()) {
    const float rtt = round().map.rtt_of(block);
    EXPECT_GT(rtt, 0.0f);
    EXPECT_LT(rtt, 15.0f * 60.0f * 1000.0f);  // under the late cutoff
  }
}

TEST_F(LatencyTest, RttTracksDistanceToSite) {
  // Blocks near their serving site should be faster than far ones.
  double near_sum = 0, far_sum = 0;
  int near_n = 0, far_n = 0;
  for (const auto& [block, site] : round().map.entries()) {
    const auto geo_record = scenario().topo().geodb().lookup(block);
    if (!geo_record) continue;
    const float rtt = round().map.rtt_of(block);
    const double km = geo::distance_km(
        geo_record->location,
        scenario().broot().sites[static_cast<std::size_t>(site)].location);
    if (km < 2000) {
      near_sum += rtt;
      ++near_n;
    } else if (km > 9000) {
      far_sum += rtt;
      ++far_n;
    }
  }
  ASSERT_GT(near_n, 10);
  ASSERT_GT(far_n, 10);
  EXPECT_LT(near_sum / near_n, far_sum / far_n);
}

TEST_F(LatencyTest, ReportIsConsistent) {
  const auto report = analyze_latency(scenario().topo(), round(), load(),
                                      scenario().broot());
  ASSERT_EQ(report.per_site.size(), 2u);
  std::uint64_t total = 0;
  for (const auto& site : report.per_site) {
    total += site.blocks;
    if (site.blocks > 0) {
      EXPECT_LE(site.rtt_ms.p5, site.rtt_ms.p95);
      EXPECT_GT(site.rtt_ms.p50, 0.0);
    }
  }
  EXPECT_EQ(total, round().map.mapped_blocks());
  EXPECT_GT(report.load_weighted_mean_ms, 0.0);
  EXPECT_GT(report.overall_rtt_ms.p50, 0.0);
}

TEST_F(LatencyTest, RecommenderFindsUsefulCandidates) {
  const auto candidates = recommend_sites(scenario().topo(), round(), load(),
                                          scenario().broot(), 5);
  ASSERT_FALSE(candidates.empty());
  ASSERT_LE(candidates.size(), 5u);
  // Ranked by weighted saving, descending.
  for (std::size_t i = 1; i < candidates.size(); ++i)
    EXPECT_GE(candidates[i - 1].weighted_saving,
              candidates[i].weighted_saving);
  // B-Root's two sites are both in the US: the best candidate should be
  // outside North America.
  const auto& best = geo::world_centers()[candidates[0].center_id];
  EXPECT_NE(best.continent, geo::Continent::kNorthAmerica)
      << candidates[0].center_name;
  EXPECT_GT(candidates[0].blocks_won, 100u);
  EXPECT_GT(candidates[0].mean_rtt_saving_ms, 0.0);
}

TEST_F(LatencyTest, RecommenderSkipsExistingSiteLocations) {
  const auto candidates = recommend_sites(scenario().topo(), round(), load(),
                                          scenario().broot(), 100);
  for (const auto& candidate : candidates) {
    const auto& center = geo::world_centers()[candidate.center_id];
    for (const auto& site : scenario().broot().sites) {
      EXPECT_GT(geo::distance_km(center.location, site.location), 299.0)
          << candidate.center_name << " overlaps " << site.code;
    }
  }
}

TEST(PredictedRtt, GrowsWithDistance) {
  const geo::LatLon la{34.1, -118.2};
  EXPECT_LT(predicted_rtt_ms(la, la), 15.0);
  EXPECT_LT(predicted_rtt_ms(la, {37.0, -122.0}),
            predicted_rtt_ms(la, {51.5, -0.1}));
}

}  // namespace
}  // namespace vp::analysis
