#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "analysis/catchment_diff.hpp"
#include "analysis/load_analysis.hpp"
#include "analysis/scenario.hpp"
#include "util/rng.hpp"

namespace vp::analysis {
namespace {

/// diff_catchments as written before it walked pages: one entries() walk
/// per map and a site_of or contains per block. The page walk must
/// reproduce it field for field, moved_queries' summation order included.
CatchmentDiff reference_diff(const topology::Topology& topo,
                             const core::CatchmentMap& before,
                             const core::CatchmentMap& after,
                             const dnsload::LoadModel& load,
                             std::size_t top_as_count) {
  CatchmentDiff diff;
  std::map<std::pair<anycast::SiteId, anycast::SiteId>, SitePairFlow> flows;
  std::unordered_map<std::uint32_t, std::uint64_t> moved_by_asn;

  for (const auto& [block, before_site] : before.entries()) {
    const anycast::SiteId after_site = after.site_of(block);
    if (after_site == anycast::kUnknownSite) {
      ++diff.vanished_blocks;
      continue;
    }
    if (after_site == before_site) {
      ++diff.stable_blocks;
      continue;
    }
    ++diff.moved_blocks;
    const double queries = load.daily_queries(block);
    diff.moved_queries += queries;
    auto& flow = flows[{before_site, after_site}];
    flow.from = before_site;
    flow.to = after_site;
    ++flow.blocks;
    flow.daily_queries += queries;
    if (const auto* info = topo.block_info(block))
      ++moved_by_asn[topo.as_at(info->as_id).asn.value];
  }
  for (const auto& [block, site] : after.entries()) {
    if (!before.contains(block)) ++diff.appeared_blocks;
  }

  diff.flows.reserve(flows.size());
  for (const auto& [key, flow] : flows) diff.flows.push_back(flow);
  std::sort(diff.flows.begin(), diff.flows.end(),
            [](const SitePairFlow& a, const SitePairFlow& b) {
              return a.blocks > b.blocks;
            });

  diff.top_ases.reserve(moved_by_asn.size());
  for (const auto& [asn, count] : moved_by_asn) {
    MovedAs moved;
    moved.asn = asn;
    const auto id = topo.find_as(topology::AsNumber{asn});
    if (id != topology::kNoAs) moved.name = topo.as_at(id).name;
    moved.moved_blocks = count;
    diff.top_ases.push_back(std::move(moved));
  }
  std::sort(diff.top_ases.begin(), diff.top_ases.end(),
            [](const MovedAs& a, const MovedAs& b) {
              return a.moved_blocks != b.moved_blocks
                         ? a.moved_blocks > b.moved_blocks
                         : a.asn < b.asn;
            });
  if (diff.top_ases.size() > top_as_count)
    diff.top_ases.resize(top_as_count);
  return diff;
}

void expect_same_diff(const CatchmentDiff& got, const CatchmentDiff& want) {
  EXPECT_EQ(got.stable_blocks, want.stable_blocks);
  EXPECT_EQ(got.moved_blocks, want.moved_blocks);
  EXPECT_EQ(got.appeared_blocks, want.appeared_blocks);
  EXPECT_EQ(got.vanished_blocks, want.vanished_blocks);
  EXPECT_EQ(got.moved_queries, want.moved_queries);  // bit for bit
  ASSERT_EQ(got.flows.size(), want.flows.size());
  for (std::size_t i = 0; i < got.flows.size(); ++i) {
    EXPECT_EQ(got.flows[i].from, want.flows[i].from) << "flow " << i;
    EXPECT_EQ(got.flows[i].to, want.flows[i].to) << "flow " << i;
    EXPECT_EQ(got.flows[i].blocks, want.flows[i].blocks) << "flow " << i;
    EXPECT_EQ(got.flows[i].daily_queries, want.flows[i].daily_queries)
        << "flow " << i;
  }
  ASSERT_EQ(got.top_ases.size(), want.top_ases.size());
  for (std::size_t i = 0; i < got.top_ases.size(); ++i) {
    EXPECT_EQ(got.top_ases[i].asn, want.top_ases[i].asn) << "AS " << i;
    EXPECT_EQ(got.top_ases[i].name, want.top_ases[i].name) << "AS " << i;
    EXPECT_EQ(got.top_ases[i].moved_blocks, want.top_ases[i].moved_blocks)
        << "AS " << i;
  }
}

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

TEST_F(DiffTest, PageWalkMatchesTheEntriesWalk) {
  const auto& topo = scenario().topo();
  const auto hitlist = scenario().hitlist().entries();
  util::Rng rng{2117};
  // What the random maps must have covered, summed over the iterations.
  std::uint64_t moved_without_load = 0;
  std::uint64_t moved_without_info = 0;
  std::uint64_t one_sided_pages = 0;  // pages at 0xf0 and up
  for (int iteration = 0; iteration < 30; ++iteration) {
    core::CatchmentMap before;
    core::CatchmentMap after;
    const auto site = [&rng] {
      return static_cast<anycast::SiteId>(rng.below(4));
    };
    // A block on a random /8 in [lo, lo + count).
    const auto random_block = [&rng](std::uint32_t lo, std::uint32_t count) {
      const auto page = lo + static_cast<std::uint32_t>(rng.below(count));
      return net::Block24{page << 16 |
                          static_cast<std::uint32_t>(rng.below(1u << 16))};
    };
    // A page only `before` holds and one only `after` holds.
    before.set(random_block(0xf0, 8), site());
    after.set(random_block(0xf8, 8), site());
    // Every page a map touches costs 320 KB, so the blocks outside the
    // hitlist stay on three random /8s below those.
    const std::uint32_t pages[] = {random_block(0, 0xf0).index() >> 16,
                                   random_block(0, 0xf0).index() >> 16,
                                   random_block(0, 0xf0).index() >> 16};
    const auto blocks = 100 + rng.below(3'000);
    for (std::uint64_t i = 0; i < blocks; ++i) {
      // Half the blocks are hitlist blocks (BlockInfo, mostly load), half
      // lie on the random pages (mostly neither).
      const net::Block24 block =
          rng.chance(0.5) ? hitlist[rng.below(hitlist.size())].block
                          : random_block(pages[rng.below(3)], 1);
      const double kind = rng.uniform();
      if (kind < 0.15) {
        before.set(block, site());  // vanishes
      } else if (kind < 0.3) {
        after.set(block, site());  // appears
      } else {
        const anycast::SiteId from = site();
        before.set(block, from);
        after.set(block, rng.chance(0.4) ? from : site());
      }
    }
    for (const auto& [block, from] : before.entries()) {
      const anycast::SiteId to = after.site_of(block);
      if (to == anycast::kUnknownSite || to == from) continue;
      moved_without_load += load().daily_queries(block) == 0.0;
      moved_without_info += topo.block_info(block) == nullptr;
    }
    for (const auto& page : before.pages())
      one_sided_pages += page.page >= 0xf0;
    const std::size_t top = 1 + rng.below(12);
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    expect_same_diff(diff_catchments(topo, before, after, load(), top),
                     reference_diff(topo, before, after, load(), top));
  }
  EXPECT_GT(moved_without_load, 0u);
  EXPECT_GT(moved_without_info, 0u);
  EXPECT_GT(one_sided_pages, 0u);
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
