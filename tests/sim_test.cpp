#include <gtest/gtest.h>

#include "anycast/deployment.hpp"
#include "bgp/routing.hpp"
#include "bgp/routing_engine.hpp"
#include "sim/flips.hpp"
#include "sim/internet.hpp"
#include "sim/responsiveness.hpp"
#include "topology/generator.hpp"

namespace vp::sim {
namespace {

class SimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topology::TopologyConfig config;
    config.seed = 33;
    config.target_blocks = 10'000;
    topo_ = new topology::Topology(topology::generate_topology(config));
    deployment_ = new anycast::Deployment(anycast::make_broot(*topo_));
    routes_ = new bgp::RoutingTable(
        *bgp::RoutingEngine{*topo_, *deployment_}.full());
    internet_ = new InternetSim(*topo_, InternetConfig{});
  }
  static void TearDownTestSuite() {
    delete internet_;
    delete routes_;
    delete deployment_;
    delete topo_;
  }
  static const topology::Topology& topo() { return *topo_; }
  static const bgp::RoutingTable& routes() { return *routes_; }
  static const InternetSim& internet() { return *internet_; }

  /// A block whose representative host responds in round 0, plus that
  /// host's address.
  static std::pair<net::Block24, net::Ipv4Address> responsive_target() {
    const auto& model = internet().responsiveness();
    for (const topology::BlockInfo& info : topo().blocks()) {
      const ReplyBehavior b = model.behavior(info.block, 0);
      if (b.responds && b.copies == 1 && !b.alias && !b.late) {
        return {info.block,
                info.block.address(model.responsive_host(info.block))};
      }
    }
    ADD_FAILURE() << "no responsive block found";
    return {};
  }

  static std::vector<std::uint8_t> make_probe(net::Ipv4Address target,
                                              std::uint32_t id = 1) {
    net::ProbePayload payload;
    payload.measurement_id = id;
    payload.tx_time_usec = 0;
    payload.original_target = target;
    std::vector<std::uint8_t> bytes;
    net::build_echo_request_into(
        bytes, routes().deployment().measurement_address, target,
        static_cast<std::uint16_t>(id), 1, payload);
    return bytes;
  }

  /// What one probe_into call produced: its deliveries, the reply bytes
  /// they share, and the counts it tallied.
  struct Probed {
    std::vector<DeliveryView> deliveries;
    std::vector<std::uint8_t> reply;
    DataplaneTally tally;
  };

  static Probed probe(std::span<const std::uint8_t> packet) {
    Probed p;
    internet().probe_into(routes(), packet, {}, 0, p.deliveries, p.reply,
                          p.tally);
    return p;
  }

  static void expect_tally(const DataplaneTally& tally, std::uint64_t probes,
                           std::uint64_t malformed, std::uint64_t unresponsive,
                           std::uint64_t site_lookups, std::uint64_t replies) {
    EXPECT_EQ(tally.probes, probes);
    EXPECT_EQ(tally.malformed, malformed);
    EXPECT_EQ(tally.unresponsive, unresponsive);
    EXPECT_EQ(tally.site_lookups, site_lookups);
    EXPECT_EQ(tally.replies, replies);
  }

 private:
  static const topology::Topology* topo_;
  static const anycast::Deployment* deployment_;
  static const bgp::RoutingTable* routes_;
  static const InternetSim* internet_;
};

const topology::Topology* SimTest::topo_ = nullptr;
const anycast::Deployment* SimTest::deployment_ = nullptr;
const bgp::RoutingTable* SimTest::routes_ = nullptr;
const InternetSim* SimTest::internet_ = nullptr;

// --- responsiveness ----------------------------------------------------------

TEST_F(SimTest, GlobalResponseRateNearPaper) {
  const auto& model = internet().responsiveness();
  std::size_t responding = 0;
  for (const topology::BlockInfo& info : topo().blocks())
    if (model.responds_in_round(info.block, 0)) ++responding;
  const double rate = static_cast<double>(responding) /
                      static_cast<double>(topo().block_count());
  // Paper Table 4: ~55% of probed blocks respond.
  EXPECT_GT(rate, 0.45);
  EXPECT_LT(rate, 0.68);
}

TEST_F(SimTest, ResponsivenessIsDeterministic) {
  const auto& model = internet().responsiveness();
  for (std::size_t i = 0; i < 500; ++i) {
    const net::Block24 block = topo().blocks()[i * 7].block;
    EXPECT_EQ(model.responds_in_round(block, 3),
              model.responds_in_round(block, 3));
    const ReplyBehavior a = model.behavior(block, 5);
    const ReplyBehavior b = model.behavior(block, 5);
    EXPECT_EQ(a.responds, b.responds);
    EXPECT_EQ(a.copies, b.copies);
    EXPECT_EQ(a.alias, b.alias);
    EXPECT_EQ(a.late, b.late);
  }
}

TEST_F(SimTest, RoundChurnIsSmall) {
  const auto& model = internet().responsiveness();
  std::size_t responsive = 0, churned = 0;
  for (const topology::BlockInfo& info : topo().blocks()) {
    if (!model.ever_responds(info.block)) continue;
    ++responsive;
    if (model.responds_in_round(info.block, 1) !=
        model.responds_in_round(info.block, 2)) {
      ++churned;
    }
  }
  const double churn =
      static_cast<double>(churned) / static_cast<double>(responsive);
  // Two-sided churn of a ~2.4% down-rate process: ~4.7% of blocks differ
  // between rounds.
  EXPECT_GT(churn, 0.02);
  EXPECT_LT(churn, 0.09);
}

TEST_F(SimTest, UnresponsiveAsesAreSuppressed) {
  const auto& model = internet().responsiveness();
  const topology::AsId kornet = topo().find_as(topology::AsNumber{4766});
  ASSERT_NE(kornet, topology::kNoAs);
  const auto& node = topo().as_at(kornet);
  std::size_t responding = 0;
  for (std::uint32_t i = 0; i < node.block_count; ++i) {
    if (model.ever_responds(topo().blocks()[node.first_block + i].block))
      ++responding;
  }
  const double rate =
      static_cast<double>(responding) / static_cast<double>(node.block_count);
  EXPECT_LT(rate, 0.25);  // Korea filters ICMP (Figure 4a)
}

TEST_F(SimTest, RepresentativeHostIsAlive) {
  const auto& model = internet().responsiveness();
  for (std::size_t i = 0; i < 200; ++i) {
    const net::Block24 block = topo().blocks()[i * 11].block;
    EXPECT_TRUE(model.is_live_host(block, model.responsive_host(block)));
  }
}

TEST_F(SimTest, SecondaryHostsAreSparse) {
  const auto& model = internet().responsiveness();
  std::size_t live = 0, total = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const net::Block24 block = topo().blocks()[i * 13].block;
    const std::uint8_t representative = model.responsive_host(block);
    for (int host = 1; host < 251; ++host) {
      if (host == representative) continue;
      ++total;
      if (model.is_live_host(block, static_cast<std::uint8_t>(host))) ++live;
    }
  }
  const double rate = static_cast<double>(live) / static_cast<double>(total);
  EXPECT_GT(rate, 0.06);
  EXPECT_LT(rate, 0.20);
}

// --- dataplane ---------------------------------------------------------------

TEST_F(SimTest, ProbeToResponsiveHostYieldsReplyAtCatchmentSite) {
  const auto [block, target] = responsive_target();
  const Probed p = probe(make_probe(target));
  ASSERT_EQ(p.deliveries.size(), 1u);
  EXPECT_EQ(p.deliveries[0].site,
            internet().ground_truth_site(routes(), block, 0));
  const auto parsed = net::parse_reply_view(p.reply);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->ip.source, target);
  EXPECT_EQ(parsed->ip.destination, routes().deployment().measurement_address);
  EXPECT_GT(p.deliveries[0].arrival.usec, 0);
  expect_tally(p.tally, 1, 0, 0, 1, 1);
}

TEST_F(SimTest, ProbeToDeadHostYieldsNothing) {
  const auto [block, target] = responsive_target();
  const auto& model = internet().responsiveness();
  // Find a dead host offset in the same block.
  for (int host = 1; host < 251; ++host) {
    if (!model.is_live_host(block, static_cast<std::uint8_t>(host))) {
      const Probed p =
          probe(make_probe(block.address(static_cast<std::uint8_t>(host))));
      EXPECT_TRUE(p.deliveries.empty());
      EXPECT_TRUE(p.reply.empty());
      expect_tally(p.tally, 1, 0, 1, 0, 0);
      return;
    }
  }
  FAIL() << "no dead host found";
}

TEST_F(SimTest, ProbeToUnallocatedSpaceYieldsNothing) {
  const Probed p = probe(make_probe(*net::Ipv4Address::parse("223.255.255.1")));
  EXPECT_TRUE(p.deliveries.empty());
  expect_tally(p.tally, 1, 0, 1, 0, 0);
}

TEST_F(SimTest, MalformedProbeIgnored) {
  const auto [block, target] = responsive_target();
  const auto bytes = make_probe(target);
  // Truncated.
  const Probed truncated = probe(std::span{bytes}.first(10));
  EXPECT_TRUE(truncated.deliveries.empty());
  expect_tally(truncated.tally, 1, 1, 0, 0, 0);
  // Any single corrupted byte breaks the IPv4 or the ICMP checksum, so
  // the host drops the probe and counts it as malformed.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0xff;
    const Probed p = probe(bad);
    EXPECT_TRUE(p.deliveries.empty()) << "byte " << i;
    expect_tally(p.tally, 1, 1, 0, 0, 0);
  }
}

TEST_F(SimTest, RttScalesWithDistance) {
  // Replies from far blocks should (on average) arrive later than from
  // blocks near the site.
  const auto& model = internet().responsiveness();
  double near_sum = 0, far_sum = 0;
  int near_n = 0, far_n = 0;
  // One tally across every call: probe_into accumulates, never resets.
  DataplaneTally tally;
  std::uint64_t probes = 0, replies = 0;
  std::vector<DeliveryView> deliveries;
  std::vector<std::uint8_t> reply;
  for (const topology::BlockInfo& info : topo().blocks()) {
    const ReplyBehavior b = model.behavior(info.block, 0);
    if (!b.responds || b.alias || b.late || b.copies != 1) continue;
    const auto geo_record = topo().geo(info.block);
    if (!geo_record) continue;
    const auto target =
        info.block.address(model.responsive_host(info.block));
    internet().probe_into(routes(), make_probe(target), {}, 0, deliveries,
                          reply, tally);
    ++probes;
    replies += deliveries.size();
    if (deliveries.size() != 1) continue;
    const auto site = deliveries[0].site;
    const double km = geo::distance_km(
        geo_record->location,
        routes().deployment().sites[static_cast<std::size_t>(site)].location);
    if (km < 1500 && near_n < 200) {
      near_sum += deliveries[0].arrival.seconds();
      ++near_n;
    } else if (km > 8000 && far_n < 200) {
      far_sum += deliveries[0].arrival.seconds();
      ++far_n;
    }
    if (near_n >= 200 && far_n >= 200) break;
  }
  ASSERT_GT(near_n, 20);
  ASSERT_GT(far_n, 20);
  EXPECT_LT(near_sum / near_n, far_sum / far_n);
  // Every target was a live representative host in an allocated block.
  expect_tally(tally, probes, 0, 0, probes, replies);
  InternetSim::flush(tally);
  expect_tally(tally, 0, 0, 0, 0, 0);
}

TEST_F(SimTest, DuplicateAliasAndLateBehaviorsOccur) {
  const auto& model = internet().responsiveness();
  std::size_t duplicates = 0, aliases = 0, lates = 0, responds = 0;
  for (const topology::BlockInfo& info : topo().blocks()) {
    const ReplyBehavior b = model.behavior(info.block, 0);
    if (!b.responds) continue;
    ++responds;
    duplicates += b.copies > 1;
    aliases += b.alias;
    lates += b.late;
  }
  ASSERT_GT(responds, 1000u);
  const auto rate = [&](std::size_t n) {
    return static_cast<double>(n) / static_cast<double>(responds);
  };
  EXPECT_GT(rate(duplicates), 0.005);
  EXPECT_LT(rate(duplicates), 0.05);
  EXPECT_GT(rate(aliases), 0.003);
  EXPECT_LT(rate(aliases), 0.03);
  EXPECT_GT(rate(lates), 0.0005);
  EXPECT_LT(rate(lates), 0.01);
}

TEST_F(SimTest, AliasReplyComesFromDifferentAddress) {
  const auto& model = internet().responsiveness();
  for (const topology::BlockInfo& info : topo().blocks()) {
    const ReplyBehavior b = model.behavior(info.block, 0);
    if (!b.responds || !b.alias) continue;
    const auto target = info.block.address(model.responsive_host(info.block));
    const Probed p = probe(make_probe(target));
    ASSERT_FALSE(p.deliveries.empty());
    const auto parsed = net::parse_reply_view(p.reply);
    ASSERT_TRUE(parsed);
    EXPECT_NE(parsed->ip.source, target);
    EXPECT_EQ(parsed->probe.original_target, target);
    expect_tally(p.tally, 1, 0, 0, 1, p.deliveries.size());
    return;
  }
  FAIL() << "no alias block found";
}

TEST_F(SimTest, LateReplyArrivesAfterCutoff) {
  const auto& model = internet().responsiveness();
  for (const topology::BlockInfo& info : topo().blocks()) {
    const ReplyBehavior b = model.behavior(info.block, 0);
    if (!b.responds || !b.late || b.alias) continue;
    const auto target = info.block.address(model.responsive_host(info.block));
    const Probed p = probe(make_probe(target));
    ASSERT_FALSE(p.deliveries.empty());
    EXPECT_GT(p.deliveries[0].arrival.minutes(), 15.0);
    expect_tally(p.tally, 1, 0, 0, 1, p.deliveries.size());
    return;
  }
  FAIL() << "no late block found";
}

// --- flips ---------------------------------------------------------------------

TEST_F(SimTest, FlappyBlocksRequireMultiSiteTies) {
  const FlipModel& flips = internet().flips();
  for (const topology::BlockInfo& info : topo().blocks()) {
    if (flips.is_flappy(routes(), info.block)) {
      EXPECT_TRUE(routes().state(info.as_id).multi_site());
    }
  }
}

TEST_F(SimTest, NonFlappyBlocksAlmostAlwaysKeepTheirSite) {
  // Transient routing events may divert any block for a single round,
  // but they must be rare: the hot-potato site should hold for ~99.9% of
  // (block, round) samples.
  const FlipModel& flips = internet().flips();
  std::uint64_t samples = 0, diverted = 0;
  for (const topology::BlockInfo& info : topo().blocks()) {
    if (flips.is_flappy(routes(), info.block)) continue;
    // site_for_block includes the stable multipath split; only transient
    // events may diverge from it.
    const auto site = routes().site_for_block(info.block);
    for (std::uint32_t round : {0u, 1u, 7u}) {
      ++samples;
      diverted += flips.site_in_round(routes(), info.block, round) != site;
    }
  }
  ASSERT_GT(samples, 1000u);
  EXPECT_LT(static_cast<double>(diverted) / static_cast<double>(samples),
            0.002);
}

TEST_F(SimTest, SomeBlocksActuallyFlip) {
  const FlipModel& flips = internet().flips();
  std::uint64_t flippers = 0;
  for (const topology::BlockInfo& info : topo().blocks()) {
    std::uint32_t mask = 0;
    for (std::uint32_t round = 0; round < 8; ++round) {
      const auto site = flips.site_in_round(routes(), info.block, round);
      if (site >= 0) mask |= 1u << site;
    }
    flippers += std::popcount(mask) > 1;
  }
  // Both the load-balanced population and transient events contribute;
  // together they must exist but stay a sub-percent phenomenon.
  EXPECT_GT(flippers, 0u);
  EXPECT_LT(flippers, topo().block_count() / 50);
}

}  // namespace
}  // namespace vp::sim
