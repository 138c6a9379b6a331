// The catchment-resolution cache's equivalence contract: precomputed
// block->site tables (bgp::CatchmentResolver) and memoized route
// computation (bgp::RouteCache) are pure materializations. Every answer
// equals FlipModel::site_in_round_uncached, and every downstream
// catchment CSV is byte-identical to a round over a fresh
// RoutingEngine::full() table, at any thread count, clean or
// fault-injected. The concurrency tests here run under TSan in CI
// (the shared cache and the resolver's call_once are hammered from
// concurrent rounds).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/scenario.hpp"
#include "bgp/catchment_resolver.hpp"
#include "bgp/route_cache.hpp"
#include "bgp/routing_engine.hpp"
#include "core/dataset_io.hpp"
#include "core/probe_engine.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_injector.hpp"
#include "util/rng.hpp"

namespace vp {
namespace {

// ---- property: cached and uncached resolution agree on every block ------

class ResolutionEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ResolutionEquivalence, EveryBlockEveryRound) {
  analysis::ScenarioConfig config;
  config.seed = GetParam();
  config.scale = 0.05;  // ~6k blocks
  const analysis::Scenario scenario{config};

  for (const auto* deployment : {&scenario.broot(), &scenario.tangled()}) {
    const auto routes_ptr = scenario.route(*deployment);
    const auto& routes = *routes_ptr;
    const sim::FlipModel& flips = scenario.internet().flips();

    // Build the resolver, then compare its answers with the reference.
    const bgp::CatchmentResolver& resolver = routes.catchment_resolver();
    EXPECT_EQ(&routes.catchment_resolver(), &resolver);  // built once

    for (const topology::BlockInfo& info : scenario.topo().blocks()) {
      // The stable table must fold exactly what site_for_block computes.
      EXPECT_EQ(resolver.stable_site(info.block),
                routes.site_for_block(info.block));
      // The tied bit marks exactly the blocks whose AS is reachable and
      // ties routes to more than one site: every flappy block among them.
      const bgp::AsRoutingState& state = routes.state(info.as_id);
      EXPECT_EQ(resolver.tied(info.block),
                state.reachable() && state.multi_site());
      if (flips.is_flappy(routes, info.block)) {
        EXPECT_TRUE(resolver.tied(info.block));
      }
      for (const std::uint32_t round : {0u, 1u, 3u, 7u}) {
        const auto cached = flips.site_in_round(routes, info.block, round);
        const auto uncached =
            flips.site_in_round_uncached(routes, info.block, round);
        ASSERT_EQ(cached, uncached)
            << deployment->name << " block " << info.block.to_string()
            << " round " << round << " seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResolutionEquivalence,
                         ::testing::Values(42, 1337));

// ---- the RouteCache itself ----------------------------------------------

class RouteCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 42;
    config.scale = 0.05;
    scenario_ = new analysis::Scenario(config);
  }
  static void TearDownTestSuite() { delete scenario_; }
  static const analysis::Scenario& scenario() { return *scenario_; }

 private:
  static analysis::Scenario* scenario_;
};

analysis::Scenario* RouteCacheTest::scenario_ = nullptr;

TEST_F(RouteCacheTest, RepeatedSweepsHitTheCache) {
  const obs::Counter& hits =
      obs::metrics().counter("vp_bgp_route_cache_hits_total");
  const obs::Counter& misses =
      obs::metrics().counter("vp_bgp_route_cache_misses_total");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  const auto first = scenario().route(scenario().broot());
  const auto again = scenario().route(scenario().broot());
  EXPECT_EQ(first.get(), again.get())
      << "same (deployment, epoch) must share one table";
  const auto other_epoch =
      scenario().route(scenario().broot(), analysis::kAprilEpoch);
  EXPECT_NE(first.get(), other_epoch.get());
  EXPECT_GE(hits.value(), hits_before + 1);
  EXPECT_GE(misses.value(), misses_before + 1);
}

TEST_F(RouteCacheTest, TablesOutliveTemporaryDeployments) {
  std::shared_ptr<const bgp::RoutingTable> table;
  {
    // The prepended deployment dies at the end of this scope; the cache
    // must have copied it (RoutingTable points into its deployment).
    table = scenario().route(scenario().broot().with_prepend("MIA", 2));
  }
  ASSERT_EQ(table->deployment().sites.size(), 2u);
  EXPECT_EQ(table->deployment().sites[1].prepend, 2);
  EXPECT_GE(table->site_for_pop(0, 0), -1);
}

// ---- whole-round byte-equality: cached table vs a fresh one -------------

class CampaignEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 99;
    config.scale = 0.05;
    scenario_ = new analysis::Scenario(config);
  }
  static void TearDownTestSuite() { delete scenario_; }

  /// One measurement round serialized to CSV. `cached` takes the table
  /// from the scenario's RouteCache (its resolver shared with every other
  /// round); otherwise a fresh RoutingEngine::full() table builds its own.
  static std::string run_csv(unsigned threads, bool cached,
                             const sim::FaultInjector* faults = nullptr) {
    std::shared_ptr<const bgp::RoutingTable> routes;
    if (cached) {
      routes = scenario_->route(scenario_->broot());
    } else {
      bgp::RoutingOptions options;
      options.tiebreak_salt =
          util::hash_combine(scenario_->config().seed, analysis::kMayEpoch);
      routes = bgp::RoutingEngine{scenario_->topo(), scenario_->broot(),
                                  options}
                   .full();
    }
    core::RoundSpec spec;
    spec.probe.measurement_id = 7300;
    spec.round = 3;
    spec.threads = threads;
    spec.faults = faults;
    const core::RoundResult result = scenario_->engine().run(*routes, spec);
    std::ostringstream csv;
    core::write_catchment_csv(csv, result, scenario_->broot());
    return csv.str();
  }

  static analysis::Scenario* scenario_;
};

analysis::Scenario* CampaignEquivalence::scenario_ = nullptr;

TEST_F(CampaignEquivalence, CsvByteIdenticalCachedOrFresh) {
  const std::string baseline = run_csv(1, /*cached=*/false);
  ASSERT_FALSE(baseline.empty());
  // The thread dimension crosses the cache dimension on purpose: the
  // thread count moves which worker claims which probe run, and so when
  // the resolver is consulted, yet every (threads, cache) combination must
  // still serialize the same bytes.
  for (const unsigned threads : {1u, 2u, 3u, 5u, 8u, 13u}) {
    EXPECT_EQ(run_csv(threads, true), baseline)
        << "cached, threads=" << threads;
    EXPECT_EQ(run_csv(threads, false), baseline)
        << "fresh, threads=" << threads;
  }
}

TEST_F(CampaignEquivalence, CsvByteIdenticalUnderFaults) {
  const sim::FaultInjector injector{sim::FaultPlan::from_seed(23)};
  const std::string baseline = run_csv(1, false, &injector);
  ASSERT_FALSE(baseline.empty());
  for (const unsigned threads : {1u, 2u, 3u, 5u, 8u, 13u}) {
    EXPECT_EQ(run_csv(threads, true, &injector), baseline)
        << "cached, threads=" << threads;
    EXPECT_EQ(run_csv(threads, false, &injector), baseline)
        << "fresh, threads=" << threads;
  }
}

// ---- concurrency: many rounds, one shared cache (TSan target) -----------

TEST_F(CampaignEquivalence, ConcurrentRoundsShareCacheAndResolvers) {
  const auto& scenario = *scenario_;
  const auto blocks = scenario.topo().blocks();
  const sim::FlipModel& flips = scenario.internet().flips();

  // Serial reference answers for four deployments (distinct cache keys).
  std::vector<anycast::Deployment> deployments;
  for (int p = 0; p < 4; ++p)
    deployments.push_back(scenario.broot().with_prepend("MIA", p));
  std::vector<std::vector<anycast::SiteId>> expected(deployments.size());
  for (std::size_t d = 0; d < deployments.size(); ++d) {
    const auto routes = scenario.route(deployments[d]);
    for (std::size_t i = 0; i < blocks.size(); i += 7)
      expected[d].push_back(
          flips.site_in_round(*routes, blocks[i].block, 1));
  }

  // Hammer a FRESH cache (its tables have unbuilt resolvers): 8 threads
  // race routes() (shared mutex, same-key dedup) and site_in_round
  // (call_once resolver build — two threads per deployment key).
  bgp::RouteCache cache{scenario.topo()};
  bgp::RoutingOptions options;
  options.tiebreak_salt =
      util::hash_combine(scenario.config().seed, analysis::kMayEpoch);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      const std::size_t d = t % deployments.size();
      const auto routes = cache.routes(deployments[d], options);
      std::size_t k = 0;
      for (std::size_t i = 0; i < blocks.size(); i += 7, ++k) {
        if (flips.site_in_round(*routes, blocks[i].block, 1) !=
            expected[d][k])
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- >=32 sites: wide-deployment regression -----------------------------

/// Builds a 1-AS topology plus a 40-site deployment whose sites all home
/// at that AS, routed through the engine. Before the std::bitset fix,
/// distinct_sites shifted `1u << site` (UB past 31) and the transient
/// picker truncated the visible list at 32.
struct WideDeployment {
  topology::Topology topo;
  anycast::Deployment deployment;
  topology::AsId as = 0;

  static constexpr int kSites = 40;
  static constexpr int kBlocks = 200;

  WideDeployment() {
    topology::AsNode node;
    node.asn = topology::AsNumber{65000};
    node.name = "wide";
    node.pops.push_back(topology::Pop{0, geo::LatLon{0.0, 0.0}});
    node.multipath = true;
    as = topo.add_as(std::move(node));
    const auto prefix_index =
        topo.announce(as, *net::Prefix::parse("10.1.0.0/16"));
    for (int b = 0; b < kBlocks; ++b) {
      topo.add_block(net::Block24::containing(net::Ipv4Address{
                         10, 1, static_cast<std::uint8_t>(b), 0}),
                     as, 0, prefix_index);
    }
    topo.seal();

    deployment.name = "wide-40";
    deployment.service_prefix = *net::Prefix::parse("192.0.2.0/24");
    deployment.measurement_address = *net::Ipv4Address::parse("192.0.2.1");
    deployment.origin_asn = topology::AsNumber{65001};
    for (int s = 0; s < kSites; ++s) {
      anycast::AnycastSite site;
      site.code = "S" + std::to_string(s);
      site.upstream = topology::AsNumber{65000};
      site.location = geo::LatLon{0.0, static_cast<double>(s)};
      deployment.sites.push_back(site);
    }
  }

  /// Routes with every site in [first, last] prepended once; the AS then
  /// ties the unprepended sites.
  std::shared_ptr<const bgp::RoutingTable> routes_prepending(int first,
                                                             int last) const {
    anycast::Deployment prepended = deployment;
    for (int s = first; s <= last; ++s)
      prepended.sites[static_cast<std::size_t>(s)].prepend = 1;
    return bgp::RoutingEngine{topo, prepended}.full();
  }
};

TEST(WideDeploymentTest, DistinctSitesCountsPast32) {
  const WideDeployment wide;
  // Sites 0-31 prepended: the AS ties the eight sites 32-39 only.
  const auto routes = wide.routes_prepending(0, 31);
  for (const bgp::CandidateRoute& route : routes->state(wide.as).candidates)
    EXPECT_GE(route.site, 32);
  EXPECT_EQ(routes->distinct_sites(wide.as), 8u);
}

TEST(WideDeploymentTest, TransientPickerReachesAll40Sites) {
  const WideDeployment wide;
  // Sites 1-39 prepended: site 0 is the AS's one best route, blocks
  // resolve stably to it, and every transient event (rate 1.0) must pick
  // among the other 39 sites.
  const auto routes_ptr = wide.routes_prepending(1, WideDeployment::kSites - 1);
  const bgp::RoutingTable& routes = *routes_ptr;
  ASSERT_EQ(routes.state(wide.as).candidates.size(), 1u);
  ASSERT_EQ(routes.state(wide.as).best().site, 0);
  sim::FlipConfig config;
  config.transient_rate = 1.0;
  const sim::FlipModel flips{config};

  std::set<anycast::SiteId> cached_picks;
  for (const topology::BlockInfo& info : wide.topo.blocks()) {
    for (const std::uint32_t round : {0u, 1u, 2u, 3u}) {
      const auto cached = flips.site_in_round(routes, info.block, round);
      const auto uncached =
          flips.site_in_round_uncached(routes, info.block, round);
      ASSERT_EQ(cached, uncached)
          << "block " << info.block.to_string() << " round " << round;
      ASSERT_NE(cached, anycast::kUnknownSite);
      cached_picks.insert(cached);
    }
  }
  // 800 uniform draws over 39 sites miss a given site with p ~ 1e-9; the
  // pre-fix 32-entry cap made sites 33..39 unreachable.
  EXPECT_GT(*cached_picks.rbegin(), 32);
  EXPECT_GE(cached_picks.size(), 38u);
}

}  // namespace
}  // namespace vp
