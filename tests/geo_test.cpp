#include <gtest/gtest.h>

#include <string>

#include "geo/geodb.hpp"
#include "geo/world.hpp"
#include "topology/topology.hpp"

namespace vp::geo {
namespace {

// --- world catalog -----------------------------------------------------------

TEST(World, CatalogIsSaneAndNonTrivial) {
  const auto centers = world_centers();
  ASSERT_GE(centers.size(), 50u);
  for (const auto& c : centers) {
    EXPECT_FALSE(c.name.empty());
    EXPECT_EQ(c.country.size(), 2u) << c.name;
    EXPECT_GE(c.location.lat, -90.0);
    EXPECT_LE(c.location.lat, 90.0);
    EXPECT_GE(c.location.lon, -180.0);
    EXPECT_LE(c.location.lon, 180.0);
    EXPECT_GT(c.block_weight, 0.0) << c.name;
    EXPECT_GE(c.atlas_weight, 0.0) << c.name;
    EXPECT_GT(c.scatter_deg, 0.0) << c.name;
  }
}

TEST(World, EveryContinentRepresented) {
  bool seen[6] = {};
  for (const auto& c : world_centers())
    seen[static_cast<int>(c.continent)] = true;
  for (int i = 0; i < 6; ++i)
    EXPECT_TRUE(seen[i]) << to_string(static_cast<Continent>(i));
}

TEST(World, AtlasSkewIsEuropean) {
  // The structural premise of the paper's coverage comparison: Europe's
  // share of Atlas weight far exceeds its share of block weight.
  double europe_atlas = 0, europe_blocks = 0;
  for (const auto& c : world_centers()) {
    if (c.continent == Continent::kEurope) {
      europe_atlas += c.atlas_weight;
      europe_blocks += c.block_weight;
    }
  }
  const double atlas_share = europe_atlas / total_atlas_weight();
  const double block_share = europe_blocks / total_block_weight();
  EXPECT_GT(atlas_share, 0.45);
  EXPECT_LT(block_share, 0.30);
  EXPECT_GT(atlas_share, 2.0 * block_share);
}

TEST(World, ChinaIsAtlasDark) {
  double china_atlas = 0, china_blocks = 0;
  for (const auto& c : world_centers()) {
    if (c.country == "CN") {
      china_atlas += c.atlas_weight;
      china_blocks += c.block_weight;
    }
  }
  EXPECT_GT(china_blocks / total_block_weight(), 0.10);
  EXPECT_LT(china_atlas / total_atlas_weight(), 0.01);
}

// --- distance ----------------------------------------------------------------

TEST(Distance, KnownPairs) {
  const LatLon london{51.5, -0.1};
  const LatLon new_york{40.7, -74.0};
  EXPECT_NEAR(distance_km(london, new_york), 5570, 100);
  EXPECT_NEAR(distance_km(london, london), 0, 1e-9);
}

TEST(Distance, SymmetricAndPositive) {
  const LatLon a{12.3, 45.6}, b{-33.9, 151.2};
  EXPECT_DOUBLE_EQ(distance_km(a, b), distance_km(b, a));
  EXPECT_GT(distance_km(a, b), 0.0);
}

TEST(Distance, AntipodesNearHalfCircumference) {
  const LatLon a{0, 0}, b{0, 180};
  EXPECT_NEAR(distance_km(a, b), 20015, 50);
}

// --- geo records on topology blocks ------------------------------------------

TEST(TopologyGeo, LookupHitAndMiss) {
  topology::Topology topo;
  topology::AsNode node;
  node.pops.push_back(topology::Pop{});
  const topology::AsId as = topo.add_as(std::move(node));
  const std::uint32_t prefix =
      topo.announce(as, *net::Prefix::parse("10.0.0.0/23"));
  topo.add_block(net::Block24{0x0a0000}, as, 0, prefix);
  topo.add_block(net::Block24{0x0a0001}, as, 0, prefix);
  GeoRecord rec;
  rec.location = {52.0, 5.0};
  rec.country[0] = 'N';
  rec.country[1] = 'L';
  topo.set_geo(0, rec);
  topo.seal();
  const GeoRecord* hit = topo.geo(net::Block24{0x0a0000});
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->location.lat, 52.0);
  EXPECT_EQ(std::string{hit->country}, "NL");
  EXPECT_EQ(topo.geo(net::Block24{0x0a0001}), nullptr);  // a block, no record
  EXPECT_EQ(topo.geo(net::Block24{0x09ffff}), nullptr);  // below the blocks
  EXPECT_EQ(topo.geo(net::Block24{0x0a0002}), nullptr);  // above them
  EXPECT_EQ(topo.geo_count(), 1u);
}

// --- binning ---------------------------------------------------------------------

TEST(GeoBin, TwoDegreeGrid) {
  EXPECT_EQ(GeoBin::of({0.0, 0.0}), (GeoBin{90, 45}));
  EXPECT_EQ(GeoBin::of({1.9, 1.9}), (GeoBin{90, 45}));
  EXPECT_EQ(GeoBin::of({2.0, 2.0}), (GeoBin{91, 46}));
  EXPECT_EQ(GeoBin::of({-90.0, -180.0}), (GeoBin{0, 0}));
  // Clamp rather than overflow at the edges.
  EXPECT_EQ(GeoBin::of({90.0, 180.0}), (GeoBin{179, 89}));
}

TEST(GeoBin, CenterIsInsideBin) {
  const GeoBin bin = GeoBin::of({51.5, -0.1});
  const LatLon center = bin.center();
  EXPECT_EQ(GeoBin::of(center), bin);
}

TEST(GeoBinner, AccumulatesPerCategory) {
  GeoBinner binner{2};
  binner.add({51.5, -0.1}, 0);
  binner.add({51.5, -0.1}, 0);
  binner.add({51.4, -0.3}, 1, 3.0);  // same 2-degree bin
  binner.add({40.7, -74.0}, 1);

  const auto rows = binner.rows();
  ASSERT_EQ(rows.size(), 2u);
  // Rows are sorted by total weight descending.
  EXPECT_DOUBLE_EQ(rows[0].total, 5.0);
  EXPECT_DOUBLE_EQ(rows[0].category_weights[0], 2.0);
  EXPECT_DOUBLE_EQ(rows[0].category_weights[1], 3.0);
  EXPECT_DOUBLE_EQ(rows[1].total, 1.0);
}

TEST(GeoBinner, OutOfRangeCategoryIgnored) {
  GeoBinner binner{1};
  binner.add({0, 0}, 5);  // invalid category: dropped, bin still exists
  const auto rows = binner.rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].total, 0.0);
}

TEST(GeoBinner, ContinentAggregation) {
  GeoBinner binner{1};
  binner.add({51.5, -0.1}, 0, 10.0);   // London
  binner.add({35.7, 139.7}, 0, 7.0);   // Tokyo
  double europe = 0, asia = 0;
  for (const auto& [continent, weights] : binner.by_continent()) {
    if (continent == Continent::kEurope) europe = weights[0];
    if (continent == Continent::kAsia) asia = weights[0];
  }
  EXPECT_DOUBLE_EQ(europe, 10.0);
  EXPECT_DOUBLE_EQ(asia, 7.0);
}

}  // namespace
}  // namespace vp::geo
