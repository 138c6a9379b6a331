#include <gtest/gtest.h>

#include <cmath>

#include "dnsload/load_model.hpp"
#include "sim/responsiveness.hpp"
#include "topology/generator.hpp"

namespace vp::dnsload {
namespace {

class LoadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topology::TopologyConfig config;
    config.seed = 91;
    config.target_blocks = 10'000;
    topo_ = new topology::Topology(topology::generate_topology(config));
    model_ = new sim::ResponsivenessModel(*topo_, {});
    LoadConfig load_config;
    load_config.seed = 5;
    load_ = new LoadModel(*topo_, *model_, load_config);
  }
  static void TearDownTestSuite() {
    delete load_;
    delete model_;
    delete topo_;
  }
  static const topology::Topology& topo() { return *topo_; }
  static const sim::ResponsivenessModel& model() { return *model_; }
  static const LoadModel& load() { return *load_; }

 private:
  static const topology::Topology* topo_;
  static const sim::ResponsivenessModel* model_;
  static const LoadModel* load_;
};

const topology::Topology* LoadTest::topo_ = nullptr;
const sim::ResponsivenessModel* LoadTest::model_ = nullptr;
const LoadModel* LoadTest::load_ = nullptr;

TEST_F(LoadTest, OnlyAMinorityOfBlocksQuery) {
  const double fraction = static_cast<double>(load().blocks().size()) /
                          static_cast<double>(topo().block_count());
  EXPECT_GT(fraction, 0.15);
  EXPECT_LT(fraction, 0.50);
}

TEST_F(LoadTest, TotalsAreNormalized) {
  const double expected =
      kMeanDailyPerBlock * static_cast<double>(load().blocks().size());
  EXPECT_NEAR(load().total_daily_queries(), expected, expected * 1e-9);
  EXPECT_GT(load().total_daily_good_replies(), 0.0);
  EXPECT_LT(load().total_daily_good_replies(), load().total_daily_queries());
}

TEST_F(LoadTest, DailyQueriesLookupAgreesWithBlocks) {
  double sum = 0.0;
  for (const BlockLoad& bl : load().blocks()) {
    EXPECT_DOUBLE_EQ(load().daily_queries(bl.block), bl.daily_queries);
    EXPECT_GT(bl.daily_queries, 0.0);
    EXPECT_GE(bl.good_fraction, 0.02f);
    EXPECT_LE(bl.good_fraction, 0.98f);
    sum += bl.daily_queries;
  }
  EXPECT_NEAR(sum, load().total_daily_queries(), sum * 1e-9);
  EXPECT_DOUBLE_EQ(load().daily_queries(net::Block24{0xffffff}), 0.0);
}

TEST_F(LoadTest, LoadIsHeavyTailed) {
  // Top 1% of querying blocks should carry a disproportionate share.
  std::vector<double> volumes;
  for (const BlockLoad& bl : load().blocks())
    volumes.push_back(bl.daily_queries);
  std::sort(volumes.begin(), volumes.end(), std::greater<>());
  const std::size_t top = volumes.size() / 100;
  double top_sum = 0, total = 0;
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    if (i < top) top_sum += volumes[i];
    total += volumes[i];
  }
  EXPECT_GT(top_sum / total, 0.10);
}

TEST_F(LoadTest, QueryingBlocksBiasedTowardResponsive) {
  std::size_t querying_responsive = 0;
  for (const BlockLoad& bl : load().blocks())
    if (model().ever_responds(bl.block)) ++querying_responsive;
  const double fraction =
      static_cast<double>(querying_responsive) /
      static_cast<double>(load().blocks().size());
  // Resolvers live in ping-responsive networks (Table 5: ~87% mappable).
  EXPECT_GT(fraction, 0.80);
  EXPECT_LT(fraction, 0.98);
}

TEST_F(LoadTest, MembershipStableAcrossDates) {
  LoadConfig april;
  april.seed = 100;
  april.membership_seed = 42;
  LoadConfig may;
  may.seed = 200;
  may.membership_seed = 42;
  const LoadModel load_april{topo(), model(), april};
  const LoadModel load_may{topo(), model(), may};
  ASSERT_EQ(load_april.blocks().size(), load_may.blocks().size());
  bool volumes_differ = false;
  for (std::size_t i = 0; i < load_april.blocks().size(); ++i) {
    EXPECT_EQ(load_april.blocks()[i].block, load_may.blocks()[i].block);
    volumes_differ |= std::abs(load_april.blocks()[i].daily_queries -
                               load_may.blocks()[i].daily_queries) > 1e-9;
  }
  EXPECT_TRUE(volumes_differ);
}

TEST_F(LoadTest, HourlyWeightsSumToOne) {
  for (const double lon : {-120.0, 0.0, 77.0, 139.0}) {
    double sum = 0.0;
    for (int h = 0; h < 24; ++h) sum += LoadModel::hourly_weight(lon, h);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "lon " << lon;
  }
}

TEST_F(LoadTest, DiurnalPeakFollowsLongitude) {
  // Peak hour in UTC should differ by ~8h between lon 0 and lon -120.
  const auto peak_hour = [](double lon) {
    int best = 0;
    for (int h = 1; h < 24; ++h)
      if (LoadModel::hourly_weight(lon, h) >
          LoadModel::hourly_weight(lon, best))
        best = h;
    return best;
  };
  const int greenwich = peak_hour(0.0);
  const int california = peak_hour(-120.0);
  EXPECT_EQ((california - greenwich + 24) % 24, 8);
}

TEST_F(LoadTest, NatDenseCountriesCarryMoreLoadPerBlock) {
  EXPECT_GT(country_volume_multiplier(LoadProfile::kRootLike, "IN"), 2.0);
  EXPECT_EQ(country_volume_multiplier(LoadProfile::kRootLike, "US"), 1.0);
  EXPECT_GT(country_volume_multiplier(LoadProfile::kNlLike, "NL"), 100.0);
  EXPECT_GT(country_volume_multiplier(LoadProfile::kNlLike, "DE"), 10.0);
}

TEST_F(LoadTest, NlProfileConcentratesInEurope) {
  LoadConfig config;
  config.seed = 7;
  config.profile = LoadProfile::kNlLike;
  const LoadModel nl{topo(), model(), config};
  double europe = 0, total = 0;
  for (const BlockLoad& bl : nl.blocks()) {
    const auto geo_record = topo().geodb().lookup(bl.block);
    if (!geo_record) continue;
    total += bl.daily_queries;
    if (geo_record->continent == geo::Continent::kEurope)
      europe += bl.daily_queries;
  }
  EXPECT_GT(europe / total, 0.55);  // Figure 4b: majority EU traffic

  // And the root-like profile must NOT be Europe-dominated.
  double root_europe = 0, root_total = 0;
  for (const BlockLoad& bl : load().blocks()) {
    const auto geo_record = topo().geodb().lookup(bl.block);
    if (!geo_record) continue;
    root_total += bl.daily_queries;
    if (geo_record->continent == geo::Continent::kEurope)
      root_europe += bl.daily_queries;
  }
  EXPECT_LT(root_europe / root_total, 0.45);
}

TEST_F(LoadTest, DeterministicForSameConfig) {
  LoadConfig config;
  config.seed = 5;
  const LoadModel again{topo(), model(), config};
  ASSERT_EQ(again.blocks().size(), load().blocks().size());
  EXPECT_DOUBLE_EQ(again.total_daily_queries(), load().total_daily_queries());
}

}  // namespace
}  // namespace vp::dnsload
