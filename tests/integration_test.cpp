// End-to-end integration tests: the paper's headline claims, verified at
// small scale against the simulator's ground truth.
#include <gtest/gtest.h>

#include "analysis/catchment_diff.hpp"
#include "analysis/coverage.hpp"
#include "analysis/divisions.hpp"
#include "analysis/load_analysis.hpp"
#include "analysis/scenario.hpp"
#include "analysis/stability.hpp"
#include "core/campaign.hpp"

namespace vp {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 42;
    config.scale = 0.3;  // ~36k blocks
    scenario_ = new analysis::Scenario(config);
    broot_routes_ = scenario_->route(scenario_->broot(), analysis::kMayEpoch);
    core::ProbeConfig probe;
    probe.measurement_id = 1;
    broot_round_ = new core::RoundResult(
        scenario_->engine().run(*broot_routes_, {probe, 0}));
  }
  static void TearDownTestSuite() {
    delete broot_round_;
    broot_routes_.reset();
    delete scenario_;
  }
  static const analysis::Scenario& scenario() { return *scenario_; }
  static const bgp::RoutingTable& broot_routes() { return *broot_routes_; }
  static const core::CatchmentMap& broot_map() { return broot_round_->map; }

 private:
  static analysis::Scenario* scenario_;
  static std::shared_ptr<const bgp::RoutingTable> broot_routes_;
  static core::RoundResult* broot_round_;
};

analysis::Scenario* IntegrationTest::scenario_ = nullptr;
std::shared_ptr<const bgp::RoutingTable> IntegrationTest::broot_routes_;
core::RoundResult* IntegrationTest::broot_round_ = nullptr;

// --- §5.3 / Table 4: coverage ------------------------------------------------

TEST_F(IntegrationTest, VerfploeterCoverageDwarfsAtlas) {
  const auto campaign = scenario().atlas().measure(
      broot_routes(), scenario().internet().flips(), 0);
  const auto report = analysis::compute_coverage(
      scenario().topo(), scenario().atlas(), campaign, broot_map());
  // The 430x headline. At this small scale the Atlas deployment is
  // clamped to a statistical minimum of ~24 probes, which compresses the
  // ratio; the full-scale bench lands near 430x.
  EXPECT_GT(report.coverage_ratio(), 120.0);
  EXPECT_LT(report.coverage_ratio(), 900.0);
  // Most Atlas blocks are also seen by Verfploeter (paper: 77%).
  EXPECT_GT(report.atlas_overlap_fraction(), 0.55);
  EXPECT_LT(report.atlas_overlap_fraction(), 0.95);
  // Both systems have blind spots the other covers.
  EXPECT_GT(report.atlas_unique_blocks, 0u);
  EXPECT_GT(report.verf_unique_blocks, 1000u);
  // A handful of mapped blocks cannot be geolocated (Table 4's 678).
  EXPECT_GT(report.verf_blocks_no_location, 0u);
  EXPECT_EQ(report.verf_blocks_geolocatable + report.verf_blocks_no_location,
            report.verf_blocks_responding);
}

TEST_F(IntegrationTest, ResponseRateMatchesHitlistStudies) {
  const double rate =
      static_cast<double>(broot_map().mapped_blocks()) /
      static_cast<double>(broot_map().blocks_probed);
  // Paper: 55% (consistent with 56-59% from the hitlist studies [17]).
  EXPECT_GT(rate, 0.45);
  EXPECT_LT(rate, 0.65);
}

// --- §5.1 / Figure 2: geography ------------------------------------------------

TEST_F(IntegrationTest, AtlasIsBlindWhereVerfploeterIsNot) {
  // China: Verfploeter maps plenty of blocks, Atlas has near-zero VPs.
  std::size_t verf_cn = 0;
  for (const auto& [block, site] : broot_map().entries()) {
    const auto geo_record = scenario().topo().geodb().lookup(block);
    if (geo_record && geo_record->country[0] == 'C' &&
        geo_record->country[1] == 'N')
      ++verf_cn;
  }
  std::size_t atlas_cn = 0;
  for (const auto& vp : scenario().atlas().vps()) {
    const auto geo_record = scenario().topo().geodb().lookup(vp.block);
    if (geo_record && geo_record->country[0] == 'C' &&
        geo_record->country[1] == 'N')
      ++atlas_cn;
  }
  EXPECT_GT(verf_cn, 500u);
  EXPECT_LT(atlas_cn, 3u);
}

// --- §5.4-5.5 / Tables 5-6: load ------------------------------------------------

TEST_F(IntegrationTest, TrafficCoverageMatchesTable5Shape) {
  const auto load = scenario().broot_load(0x20170515);
  const auto coverage = analysis::compute_traffic_coverage(load, broot_map());
  // Paper: 87.1% of querying blocks mapped, carrying 82.4% of queries —
  // i.e. unmappable blocks carry *more* load per block.
  EXPECT_GT(coverage.mapped_block_fraction(), 0.75);
  EXPECT_LT(coverage.mapped_block_fraction(), 0.95);
  EXPECT_LT(coverage.mapped_query_fraction(),
            coverage.mapped_block_fraction());
}

TEST_F(IntegrationTest, LoadWeightingImprovesPrediction) {
  // The paper's central §5.5 result: load-weighted Verfploeter predicts
  // the observed traffic split better than raw block counts.
  const auto load = scenario().broot_load(0x20170515);
  const auto predicted = analysis::predict_load(
      load, broot_map(), scenario().broot().sites.size());
  const auto actual = analysis::actual_load(
      load, broot_routes(), scenario().internet().flips(), 0);

  const double block_based = broot_map().fraction_to(0);
  const double load_based = predicted.fraction_to(0);
  const double truth = actual.fraction_to(0);

  EXPECT_LT(std::abs(load_based - truth), std::abs(block_based - truth))
      << "blocks " << block_based << " load " << load_based << " truth "
      << truth;
  EXPECT_LT(std::abs(load_based - truth), 0.08);
}

TEST_F(IntegrationTest, UnmappableBlocksFollowMappedProportions) {
  // §5.5's first observation: traffic from Verfploeter-unmappable blocks
  // splits across sites roughly like mapped traffic does.
  const auto load = scenario().broot_load(0x20170515);
  analysis::LoadSplit unmapped_truth;
  unmapped_truth.site_queries.assign(2, 0.0);
  for (const auto& bl : load.blocks()) {
    if (broot_map().contains(bl.block)) continue;
    const auto site = scenario().internet().flips().site_in_round(
        broot_routes(), bl.block, 0);
    if (site >= 0)
      unmapped_truth.site_queries[static_cast<std::size_t>(site)] +=
          bl.daily_queries;
  }
  // At small simulation scales the unmapped set is dominated by a few
  // ICMP-dark giant ASes, so the agreement is looser than the paper's
  // full-Internet 0.2%.
  const auto mapped = analysis::predict_load(load, broot_map(), 2);
  EXPECT_NEAR(unmapped_truth.fraction_to(0), mapped.fraction_to(0), 0.15);
}

TEST_F(IntegrationTest, StalePredictionsAreWorse) {
  // §5.5 long-duration: April catchments + April load predict May's
  // actual split worse than same-day data does.
  const auto april_routes_ptr = scenario().route(scenario().broot(), analysis::kAprilEpoch);
  const auto& april_routes = *april_routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 90;
  const auto april_map =
      scenario().engine().run(april_routes, {probe, 40}).map;
  const auto april_load = scenario().broot_load(0x20170412);
  const auto may_load = scenario().broot_load(0x20170515);

  const double truth =
      analysis::actual_load(may_load, broot_routes(),
                            scenario().internet().flips(), 0)
          .fraction_to(0);
  const double fresh =
      analysis::predict_load(may_load, broot_map(), 2).fraction_to(0);
  const double stale =
      analysis::predict_load(april_load, april_map, 2).fraction_to(0);
  // At reduced scale both errors are dominated by unmapped-set noise, so
  // we only require that fresh data is not meaningfully worse; the
  // full-scale bench (bench_table6_pct_lax) shows the clean ordering.
  EXPECT_LE(std::abs(fresh - truth), std::abs(stale - truth) + 0.02);
}

// --- §6.1 / Figure 5: prepending -------------------------------------------------

TEST_F(IntegrationTest, PrependingShiftsCatchmentMonotonically) {
  double previous = -1.0;
  for (const auto& [site, amount] :
       std::vector<std::pair<const char*, int>>{
           {"LAX", 1}, {"LAX", 0}, {"MIA", 1}, {"MIA", 2}, {"MIA", 3}}) {
    const auto deployment = scenario().broot().with_prepend(site, amount);
    const auto routes_ptr = scenario().route(deployment, analysis::kAprilEpoch);
    const auto& routes = *routes_ptr;
    core::ProbeConfig probe;
    probe.measurement_id = 200 + amount;
    const auto map =
        scenario().engine().run(routes, {probe, 0}).map;
    const double lax = map.fraction_to(0);
    EXPECT_GE(lax, previous - 1e-9);
    previous = lax;
  }
}

TEST_F(IntegrationTest, PrependingLeavesAStickyResidue) {
  // Even at MIA+3, AMPATH's own customer cone stays at MIA (§6.1: "likely
  // customers of MIA's ISP, or ASes that ignore prepending").
  const auto deployment = scenario().broot().with_prepend("MIA", 3);
  const auto routes_ptr = scenario().route(deployment, analysis::kAprilEpoch);
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 300;
  const auto map = scenario().engine().run(routes, {probe, 0}).map;
  const double mia = map.fraction_to(1);
  EXPECT_GT(mia, 0.005);
  EXPECT_LT(mia, 0.20);
}

// --- §6.2 / Figures 7-8: divisions ------------------------------------------------

TEST_F(IntegrationTest, LargeAsesSplitAcrossTangledSites) {
  const auto routes_ptr = scenario().route(scenario().tangled());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 400;
  const auto map = scenario().engine().run(routes, {probe, 0}).map;
  const auto report = analysis::analyze_divisions(scenario().topo(), map);
  // Paper: ~12.7% of ASes are served by more than one site.
  EXPECT_GT(report.multi_site_fraction(), 0.02);
  EXPECT_LT(report.multi_site_fraction(), 0.35);

  // ASes seen at more sites announce more prefixes (Figure 7's trend):
  // compare the 1-site and the highest-populated multi-site bucket.
  double single_mean = 0, multi_sum = 0, multi_n = 0;
  for (const auto& bucket : report.buckets) {
    if (bucket.sites_seen == 1) single_mean = bucket.mean_prefixes;
    if (bucket.sites_seen >= 2) {
      multi_sum += bucket.mean_prefixes * static_cast<double>(bucket.as_count);
      multi_n += static_cast<double>(bucket.as_count);
    }
  }
  ASSERT_GT(multi_n, 0.0);
  EXPECT_GT(multi_sum / multi_n, single_mean);

  // Figure 8's trend: short prefixes see more sites than long ones.
  const auto rows = analysis::analyze_prefix_sites(scenario().topo(), map);
  ASSERT_GE(rows.size(), 4u);
  double short_mean = 0, long_mean = 0;
  int short_n = 0, long_n = 0;
  for (const auto& row : rows) {
    if (row.prefix_length <= 17 && row.prefix_count >= 3) {
      short_mean += row.mean_sites;
      ++short_n;
    }
    if (row.prefix_length >= 23) {
      long_mean += row.mean_sites;
      ++long_n;
    }
  }
  ASSERT_GT(short_n, 0);
  ASSERT_GT(long_n, 0);
  EXPECT_GT(short_mean / short_n, long_mean / long_n);
}

// --- §6.3 / Figure 9, Table 7: stability ---------------------------------------------

TEST_F(IntegrationTest, AnycastIsOverwhelminglyStable) {
  const auto routes_ptr = scenario().route(scenario().tangled());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 1000;
  const auto rounds = core::Campaign{scenario().engine(), routes}
                          .probe(probe)
                          .rounds(8)
                          .interval(util::SimTime::from_minutes(15))
                          .run();
  const auto report = analysis::analyze_stability(scenario().topo(), rounds);

  const double stable = report.median_stable();
  const double flipped = report.median_flipped();
  const double churn = report.median_to_nr();
  ASSERT_GT(stable, 0.0);
  // Paper Figure 9: ~95% stable, ~2.4% to-NR, ~0.1% flips.
  EXPECT_GT(stable / (stable + flipped + churn), 0.90);
  EXPECT_LT(flipped / stable, 0.01);
  EXPECT_GT(flipped, 0.0);
  EXPECT_GT(report.median_from_nr(), 0.0);

  // Table 7 is sorted by flips descending, ties by ASN ascending.
  ASSERT_FALSE(report.by_as.empty());
  bool tied = false;
  for (std::size_t i = 1; i < report.by_as.size(); ++i) {
    const auto& prev = report.by_as[i - 1];
    const auto& cur = report.by_as[i];
    tied = tied || prev.flips == cur.flips;
    EXPECT_TRUE(prev.flips > cur.flips ||
                (prev.flips == cur.flips && prev.asn < cur.asn))
        << "rank " << i;
  }
  EXPECT_TRUE(tied) << "fixture no longer exercises the tie-break";

  // Table 7: flips concentrate; the top AS should be Chinanet-like.
  const auto& top = report.by_as.front();
  double top_share = static_cast<double>(top.flips) /
                     static_cast<double>(report.total_flips);
  EXPECT_GT(top_share, 0.25);
  EXPECT_TRUE(scenario()
                  .topo()
                  .as_at(scenario().topo().find_as(
                      topology::AsNumber{top.asn}))
                  .load_balanced)
      << top.name;
}

// --- failure injection: site withdrawal (the paper's DDoS-response story) --------

TEST_F(IntegrationTest, WithdrawnSiteFailsOverCompletely) {
  // Withdraw MIA (e.g. it is being overwhelmed): every block must land
  // at LAX in the next scan, and the diff attributes the move correctly.
  anycast::Deployment degraded = scenario().broot();
  degraded.sites[1].enabled = false;
  const auto routes_ptr = scenario().route(degraded, analysis::kMayEpoch);
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 5000;
  const auto after = scenario().engine().run(routes, {probe, 0});

  const auto counts = after.map.per_site_counts(2);
  EXPECT_EQ(counts[1], 0u) << "withdrawn site still attracting traffic";
  EXPECT_EQ(counts[0], after.map.mapped_blocks());
  // Coverage does not collapse: the same blocks respond, just elsewhere.
  EXPECT_NEAR(static_cast<double>(after.map.mapped_blocks()),
              static_cast<double>(broot_map().mapped_blocks()),
              0.02 * static_cast<double>(broot_map().mapped_blocks()));

  const auto load = scenario().broot_load(0x20170515);
  const auto diff = analysis::diff_catchments(scenario().topo(), broot_map(),
                                              after.map, load);
  ASSERT_FALSE(diff.flows.empty());
  EXPECT_EQ(diff.flows[0].from, 1);  // MIA ->
  EXPECT_EQ(diff.flows[0].to, 0);    // -> LAX
  // Everything that moved came out of MIA and into LAX.
  for (const auto& flow : diff.flows) EXPECT_EQ(flow.to, 0);
}

TEST_F(IntegrationTest, SingleSiteDeploymentCatchesEverything) {
  anycast::Deployment solo = scenario().broot();
  solo.sites.erase(solo.sites.begin() + 1);
  const auto routes_ptr = scenario().route(solo);
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 5001;
  const auto map = scenario().engine().run(routes, {probe, 0}).map;
  EXPECT_NEAR(map.fraction_to(0), 1.0, 1e-9);
  EXPECT_GT(map.mapped_blocks(), broot_map().mapped_blocks() / 2);
}

// --- Tangled: all visible sites get traffic; hidden one does not -----------------

TEST_F(IntegrationTest, TangledSitesHaveSaneCatchments) {
  const auto routes_ptr = scenario().route(scenario().tangled());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 2000;
  const auto map = scenario().engine().run(routes, {probe, 0}).map;
  const auto counts =
      map.per_site_counts(scenario().tangled().sites.size());
  const auto gru = scenario().tangled().site_by_code("GRU");
  ASSERT_TRUE(gru.has_value());
  std::size_t nonempty = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (s == static_cast<std::size_t>(*gru)) {
      EXPECT_EQ(counts[s], 0u) << "hidden site must attract nothing";
    } else {
      nonempty += counts[s] > 0;
    }
  }
  EXPECT_GE(nonempty, 7u);
}

}  // namespace
}  // namespace vp
