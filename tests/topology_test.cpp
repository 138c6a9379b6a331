#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <random>
#include <unordered_set>
#include <vector>

#include "geo/world.hpp"
#include "topology/generator.hpp"
#include "topology/topology.hpp"

namespace vp::topology {
namespace {

/// Small generated Internet shared across this file's tests.
class TopologyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TopologyConfig config;
    config.seed = 7;
    config.target_blocks = 12'000;
    topo_ = new Topology(generate_topology(config));
  }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }
  static const Topology& topo() { return *topo_; }

 private:
  static const Topology* topo_;
};

const Topology* TopologyTest::topo_ = nullptr;

TEST_F(TopologyTest, HitsBlockTarget) {
  EXPECT_GT(topo().block_count(), 10'000u);
  EXPECT_LT(topo().block_count(), 16'000u);
}

TEST_F(TopologyTest, BlocksAreUniqueAndIndexed) {
  std::unordered_set<std::uint32_t> seen;
  for (const BlockInfo& info : topo().blocks()) {
    EXPECT_TRUE(seen.insert(info.block.index()).second)
        << "duplicate block " << info.block.to_string();
    const BlockInfo* lookup = topo().block_info(info.block);
    ASSERT_NE(lookup, nullptr);
    EXPECT_EQ(lookup->as_id, info.as_id);
  }
  EXPECT_EQ(topo().block_info(net::Block24{0xffffff}), nullptr);
}

TEST_F(TopologyTest, EveryBlockInsideItsAnnouncedPrefix) {
  const auto prefixes = topo().announced_prefixes();
  for (const BlockInfo& info : topo().blocks()) {
    ASSERT_LT(info.prefix_index, prefixes.size());
    const AnnouncedPrefix& ap = prefixes[info.prefix_index];
    EXPECT_TRUE(ap.prefix.contains(info.block.base_address()))
        << info.block.to_string() << " not in " << ap.prefix.to_string();
    EXPECT_EQ(ap.origin, info.as_id);
  }
}

TEST_F(TopologyTest, AnnouncedPrefixesAreDisjoint) {
  // With EveryBlockInsideItsAnnouncedPrefix, this makes each block's
  // prefix the only announced prefix that contains it.
  std::vector<net::Prefix> sorted;
  for (const AnnouncedPrefix& ap : topo().announced_prefixes())
    sorted.push_back(ap.prefix);
  std::sort(sorted.begin(), sorted.end());  // by base, then length
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const net::Prefix& prev = sorted[i - 1];
    EXPECT_LE(prev.base().value() + prev.size(), sorted[i].base().value())
        << prev.to_string() << " overlaps " << sorted[i].to_string();
  }
}

TEST_F(TopologyTest, PrefixRangesArePerAsContiguous) {
  for (const AsNode& node : topo().ases()) {
    const auto prefixes = topo().announced_prefixes();
    for (std::uint32_t i = 0; i < node.prefix_count; ++i) {
      EXPECT_EQ(prefixes[node.first_prefix + i].origin,
                static_cast<AsId>(&node - topo().ases().data()));
    }
    EXPECT_GE(node.prefix_count, 1u) << node.name;
  }
}

TEST_F(TopologyTest, PopsAreValid) {
  for (const AsNode& node : topo().ases()) {
    EXPECT_FALSE(node.pops.empty()) << node.name;
    for (const Pop& pop : node.pops)
      EXPECT_LT(pop.center_id, geo::world_centers().size());
    for (const Link& link : node.links) {
      EXPECT_LT(link.local_pop, node.pops.size());
      EXPECT_LT(link.remote_pop, topo().as_at(link.neighbor).pops.size());
    }
  }
}

TEST_F(TopologyTest, RelationshipsAreReciprocal) {
  for (AsId a = 0; a < topo().as_count(); ++a) {
    for (const Link& link : topo().as_at(a).links) {
      bool found = false;
      for (const Link& back : topo().as_at(link.neighbor).links) {
        if (back.neighbor != a) continue;
        found = true;
        const Relationship expected =
            link.rel == Relationship::kProvider ? Relationship::kCustomer
            : link.rel == Relationship::kCustomer ? Relationship::kProvider
                                                  : Relationship::kPeer;
        EXPECT_EQ(back.rel, expected);
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST_F(TopologyTest, EveryAsClimbsToTheTransitClique) {
  // Valley-free reachability: following provider edges upward from any AS
  // must reach a transit (otherwise parts of the Internet are unroutable).
  std::vector<char> reaches(topo().as_count(), 0);
  std::queue<AsId> frontier;
  for (AsId a = 0; a < topo().as_count(); ++a) {
    if (topo().as_at(a).tier == AsTier::kTransit) {
      reaches[a] = 1;
      frontier.push(a);
    }
  }
  // Walk downward over customer edges.
  while (!frontier.empty()) {
    const AsId a = frontier.front();
    frontier.pop();
    for (const Link& link : topo().as_at(a).links) {
      if (link.rel == Relationship::kCustomer && !reaches[link.neighbor]) {
        reaches[link.neighbor] = 1;
        frontier.push(link.neighbor);
      }
    }
  }
  std::size_t unreachable = 0;
  for (AsId a = 0; a < topo().as_count(); ++a)
    if (!reaches[a]) ++unreachable;
  EXPECT_EQ(unreachable, 0u);
}

TEST_F(TopologyTest, TransitCliqueIsFullyMeshed) {
  std::vector<AsId> transits;
  for (AsId a = 0; a < topo().as_count(); ++a)
    if (topo().as_at(a).tier == AsTier::kTransit &&
        topo().as_at(a).asn.value < 50000 &&
        topo().as_at(a).asn.value != 20473)  // Vultr is transit-like
      transits.push_back(a);
  ASSERT_GE(transits.size(), 10u);
  for (const AsId a : transits) {
    for (const AsId b : transits) {
      if (a == b) continue;
      bool linked = false;
      for (const Link& link : topo().as_at(a).links)
        if (link.neighbor == b && link.rel == Relationship::kPeer)
          linked = true;
      EXPECT_TRUE(linked) << topo().as_at(a).name << " !~ "
                          << topo().as_at(b).name;
    }
  }
}

TEST_F(TopologyTest, SpecialAsesPresent) {
  // Table 3 upstreams and Table 7 giants must exist for the presets.
  for (const std::uint32_t asn :
       {226u, 20080u, 20473u, 2500u, 1103u, 1972u, 1251u, 39839u, 4134u,
        7922u, 4766u}) {
    EXPECT_NE(topo().find_as(AsNumber{asn}), kNoAs) << "AS" << asn;
  }
  const AsId chinanet = topo().find_as(AsNumber{4134});
  EXPECT_TRUE(topo().as_at(chinanet).load_balanced);
  const AsId kornet = topo().find_as(AsNumber{4766});
  EXPECT_LT(topo().as_at(kornet).icmp_response_scale, 0.5);
}

TEST_F(TopologyTest, GeolocationNearlyComplete) {
  std::size_t located = 0;
  for (const BlockInfo& info : topo().blocks())
    if (topo().geo(info.block)) ++located;
  const double fraction =
      static_cast<double>(located) / static_cast<double>(topo().block_count());
  EXPECT_GT(fraction, 0.995);
  EXPECT_LT(fraction, 1.0);  // a few blocks must be unlocatable (Table 4)
}

TEST_F(TopologyTest, PrefixLengthsSpanWideRange) {
  std::unordered_set<int> lengths;
  for (const AnnouncedPrefix& ap : topo().announced_prefixes())
    lengths.insert(ap.prefix.length());
  // Figure 8 needs a spread of prefix sizes.
  EXPECT_GE(lengths.size(), 8u);
  EXPECT_TRUE(lengths.contains(24));
}

TEST_F(TopologyTest, MultiPopAsesExist) {
  std::size_t multi_pop = 0;
  for (const AsNode& node : topo().ases())
    if (node.pops.size() > 1) ++multi_pop;
  EXPECT_GT(multi_pop, 10u);
}

TEST(TopologyGenerator, DeterministicForSameSeed) {
  TopologyConfig config;
  config.seed = 99;
  config.target_blocks = 4'000;
  const Topology a = generate_topology(config);
  const Topology b = generate_topology(config);
  ASSERT_EQ(a.as_count(), b.as_count());
  ASSERT_EQ(a.block_count(), b.block_count());
  for (std::size_t i = 0; i < a.block_count(); i += 11) {
    EXPECT_EQ(a.blocks()[i].block, b.blocks()[i].block);
    EXPECT_EQ(a.blocks()[i].as_id, b.blocks()[i].as_id);
    EXPECT_EQ(a.blocks()[i].pop, b.blocks()[i].pop);
  }
  for (std::size_t i = 0; i < a.as_count(); i += 7) {
    EXPECT_EQ(a.as_at(i).asn, b.as_at(i).asn);
    EXPECT_EQ(a.as_at(i).links.size(), b.as_at(i).links.size());
  }
}

TEST(TopologyGenerator, DifferentSeedsDiffer) {
  TopologyConfig a_config, b_config;
  a_config.seed = 1;
  b_config.seed = 2;
  a_config.target_blocks = b_config.target_blocks = 4'000;
  const Topology a = generate_topology(a_config);
  const Topology b = generate_topology(b_config);
  // Some macro statistic should differ.
  EXPECT_NE(a.as_count() * 1000 + a.block_count(),
            b.as_count() * 1000 + b.block_count());
}

TEST(TopologyGenerator, ScaleControlsSize) {
  TopologyConfig small_config;
  small_config.target_blocks = 3'000;
  TopologyConfig large_config;
  large_config.target_blocks = 12'000;
  const Topology small = generate_topology(small_config);
  const Topology large = generate_topology(large_config);
  EXPECT_GT(large.block_count(), small.block_count() * 2);
}

// The block index must not depend on the order blocks arrive in: loaded
// images list them in whatever order their writer chose. Two ASes over
// 10.0.0.0/24-10.0.63.0/24 with a hole at 10.0.20.0/24; each AS's blocks
// are added together (its block range is contiguous), lowest last.
TEST(TopologyBlockIndex, AnyInsertionOrderResolvesAfterSeal) {
  constexpr std::uint32_t kLo = 0x0a0000, kHi = 0x0a003f, kHole = 0x0a0014;
  constexpr std::uint32_t kSplit = 0x0a0020;  // the upper AS's first block
  for (const bool shuffled : {false, true}) {
    Topology topo;
    const auto add = [&](std::uint32_t asn) {
      AsNode node;
      node.asn = AsNumber{asn};
      node.pops.push_back(Pop{0, geo::world_centers()[0].location});
      return topo.add_as(std::move(node));
    };
    const AsId upper = add(64500), lower = add(64501);
    const std::uint32_t upper_prefix =
        topo.announce(upper, *net::Prefix::parse("10.0.32.0/19"));
    const std::uint32_t lower_prefix =
        topo.announce(lower, *net::Prefix::parse("10.0.0.0/19"));
    std::mt19937 rng{shuffled ? 17u : 0u};
    const auto add_blocks = [&](AsId as, std::uint32_t prefix,
                                std::uint32_t first, std::uint32_t last) {
      std::vector<std::uint32_t> order;
      for (std::uint32_t b = last + 1; b-- > first;)
        if (b != kHole) order.push_back(b);  // descending
      if (shuffled) std::shuffle(order.begin(), order.end(), rng);
      for (const std::uint32_t b : order)
        topo.add_block(net::Block24{b}, as, 0, prefix);
    };
    add_blocks(upper, upper_prefix, kSplit, kHi);
    add_blocks(lower, lower_prefix, kLo, kSplit - 1);
    topo.seal();

    ASSERT_EQ(topo.block_count(), kHi - kLo);  // 64 slots, one hole
    for (std::uint32_t b = kLo; b <= kHi; ++b) {
      const BlockInfo* info = topo.block_info(net::Block24{b});
      if (b == kHole) {
        EXPECT_EQ(info, nullptr) << "hole resolved, shuffled=" << shuffled;
        continue;
      }
      ASSERT_NE(info, nullptr) << std::hex << b << " shuffled=" << shuffled;
      EXPECT_EQ(info->block.index(), b);
      EXPECT_EQ(info->as_id, b < kSplit ? lower : upper);
      EXPECT_EQ(info->prefix_index, b < kSplit ? lower_prefix : upper_prefix);
    }
    EXPECT_EQ(topo.block_info(net::Block24{kLo - 1}), nullptr);
    EXPECT_EQ(topo.block_info(net::Block24{kHi + 1}), nullptr);
    EXPECT_EQ(topo.block_info(net::Block24{0}), nullptr);
    EXPECT_EQ(topo.block_info(net::Block24{0xffffff}), nullptr);
  }
}

TEST(TopologyGenerator, CenterByNameAbortsOnlyOnUnknown) {
  EXPECT_LT(center_by_name("Tokyo"), geo::world_centers().size());
  EXPECT_DEATH(center_by_name("Atlantis"), "unknown population center");
}

}  // namespace
}  // namespace vp::topology
