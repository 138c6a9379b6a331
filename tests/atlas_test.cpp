#include <gtest/gtest.h>

#include <unordered_set>

#include "atlas/atlas.hpp"
#include "bgp/routing.hpp"
#include "bgp/routing_engine.hpp"
#include "sim/internet.hpp"
#include "topology/generator.hpp"

namespace vp::atlas {
namespace {

class AtlasTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topology::TopologyConfig config;
    config.seed = 13;
    config.target_blocks = 10'000;
    topo_ = new topology::Topology(topology::generate_topology(config));
    internet_ = new sim::InternetSim(*topo_, sim::InternetConfig{});
    AtlasConfig atlas_config;
    atlas_config.vp_count = 400;
    platform_ =
        new AtlasPlatform(*topo_, internet_->responsiveness(), atlas_config);
    deployment_ = new anycast::Deployment(anycast::make_broot(*topo_));
    routes_ = new bgp::RoutingTable(
        *bgp::RoutingEngine{*topo_, *deployment_}.full());
  }
  static void TearDownTestSuite() {
    delete routes_;
    delete deployment_;
    delete platform_;
    delete internet_;
    delete topo_;
  }
  static const topology::Topology& topo() { return *topo_; }
  static const sim::InternetSim& internet() { return *internet_; }
  static const AtlasPlatform& platform() { return *platform_; }
  static const bgp::RoutingTable& routes() { return *routes_; }

 private:
  static const topology::Topology* topo_;
  static sim::InternetSim* internet_;
  static const AtlasPlatform* platform_;
  static const anycast::Deployment* deployment_;
  static const bgp::RoutingTable* routes_;
};

const topology::Topology* AtlasTest::topo_ = nullptr;
sim::InternetSim* AtlasTest::internet_ = nullptr;
const AtlasPlatform* AtlasTest::platform_ = nullptr;
const anycast::Deployment* AtlasTest::deployment_ = nullptr;
const bgp::RoutingTable* AtlasTest::routes_ = nullptr;

TEST_F(AtlasTest, DeploysRequestedVpCount) {
  EXPECT_EQ(platform().vps().size(), 400u);
}

TEST_F(AtlasTest, VpsLiveInRealBlocks) {
  for (const Vp& vp : platform().vps()) {
    const auto* info = topo().block_info(vp.block);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->as_id, vp.as_id);
  }
}

TEST_F(AtlasTest, EuropeanSkewIsPresent) {
  // The platform's defining bias (paper §5.4, [8]): Europe hosts roughly
  // half the probes even though it has well under a third of the blocks.
  std::size_t europe_vps = 0;
  for (const Vp& vp : platform().vps()) {
    const auto geo_record = topo().geo(vp.block);
    if (geo_record && geo_record->continent == geo::Continent::kEurope)
      ++europe_vps;
  }
  const double vp_share = static_cast<double>(europe_vps) /
                          static_cast<double>(platform().vps().size());
  std::size_t europe_blocks = 0;
  for (const topology::BlockInfo& info : topo().blocks()) {
    const auto geo_record = topo().geo(info.block);
    if (geo_record && geo_record->continent == geo::Continent::kEurope)
      ++europe_blocks;
  }
  const double block_share = static_cast<double>(europe_blocks) /
                             static_cast<double>(topo().block_count());
  EXPECT_GT(vp_share, 0.40);
  EXPECT_GT(vp_share, 1.7 * block_share);
}

TEST_F(AtlasTest, CampaignCountsAreConsistent) {
  const Campaign campaign =
      platform().measure(routes(), internet().flips(), 0);
  EXPECT_EQ(campaign.considered, platform().vps().size());
  std::size_t responding = 0;
  for (const auto site : campaign.vp_site)
    if (site >= 0) ++responding;
  EXPECT_EQ(campaign.responding, responding);
  EXPECT_LE(campaign.responding_blocks, campaign.responding);
  EXPECT_LE(campaign.considered_blocks, campaign.considered);
}

TEST_F(AtlasTest, SomeProbesAreDown) {
  const Campaign campaign =
      platform().measure(routes(), internet().flips(), 0);
  const auto down = campaign.considered - campaign.responding;
  // ~4.6% down rate (Table 4's 455/9807), with slack for small samples.
  EXPECT_GT(down, 0u);
  EXPECT_LT(down, campaign.considered / 8);
}

TEST_F(AtlasTest, VpsAgreeWithGroundTruth) {
  const Campaign campaign =
      platform().measure(routes(), internet().flips(), 0);
  const auto vps = platform().vps();
  for (std::size_t i = 0; i < vps.size(); ++i) {
    if (campaign.vp_site[i] < 0) continue;
    EXPECT_EQ(campaign.vp_site[i],
              internet().flips().site_in_round(routes(), vps[i].block, 0));
  }
}

TEST_F(AtlasTest, FractionsAndCountsAgree) {
  const Campaign campaign =
      platform().measure(routes(), internet().flips(), 0);
  const auto counts = campaign.per_site_counts(2);
  const double lax = campaign.fraction_to(0);
  EXPECT_NEAR(lax, static_cast<double>(counts[0]) /
                       static_cast<double>(counts[0] + counts[1]),
              1e-9);
}

TEST_F(AtlasTest, DownProbesVaryByRound) {
  const Campaign a = platform().measure(routes(), internet().flips(), 0);
  const Campaign b = platform().measure(routes(), internet().flips(), 1);
  // The same probe should not be deterministically down forever.
  bool any_difference = false;
  for (std::size_t i = 0; i < a.vp_site.size(); ++i) {
    if ((a.vp_site[i] < 0) != (b.vp_site[i] < 0)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(AtlasTest, MostVpBlocksArePingResponsive) {
  // Calibrates Table 4's "unique" row: ~77% of Atlas blocks are also seen
  // by Verfploeter, so most (not all) VP blocks must answer pings.
  std::size_t responsive = 0;
  for (const Vp& vp : platform().vps())
    if (internet().responsiveness().ever_responds(vp.block)) ++responsive;
  const double fraction = static_cast<double>(responsive) /
                          static_cast<double>(platform().vps().size());
  EXPECT_GT(fraction, 0.60);
  EXPECT_LT(fraction, 0.92);
}

TEST_F(AtlasTest, DeterministicDeployment) {
  AtlasConfig config;
  config.vp_count = 400;
  const AtlasPlatform again{topo(), internet().responsiveness(), config};
  ASSERT_EQ(again.vps().size(), platform().vps().size());
  for (std::size_t i = 0; i < again.vps().size(); i += 17)
    EXPECT_EQ(again.vps()[i].block, platform().vps()[i].block);
}

}  // namespace
}  // namespace vp::atlas
