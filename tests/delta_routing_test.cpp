// The delta-routing contract: RoutingEngine::apply() must be
// *indistinguishable* from throwing the session away and recomputing the
// post-delta configuration from scratch — same candidates, same PoP
// catchments, same per-block sites — while doing strictly less work and
// structurally sharing the state of every untouched AS.
//
// The sweep drives ≥50 seeded topologies through random
// announce / withdraw / prepend sequences (plus no-op deltas, net no-op
// deltas and delta-then-revert round-trips) and compares every applied
// table bit-for-bit against a fresh full(). A second sweep sends the
// 1-3-site deltas that /load and the playbook send over scale-generator
// worlds. A concurrent case hammers one engine from writer and reader
// threads (the TSan lane runs it).
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "anycast/deployment.hpp"
#include "bgp/routing.hpp"
#include "bgp/routing_engine.hpp"
#include "topology/generator.hpp"
#include "topology/scale_generator.hpp"

namespace vp::bgp {
namespace {

topology::Topology make_topo(std::uint64_t seed) {
  topology::TopologyConfig config;
  config.seed = seed;
  config.target_blocks = 2'000;
  return topology::generate_topology(config);
}

/// Asserts the two tables answer identically everywhere: per-AS
/// candidate lists (CandidateRoute ==), per-PoP sites, per-block sites.
void expect_identical(const topology::Topology& topo, const RoutingTable& got,
                      const RoutingTable& want, const char* context) {
  for (topology::AsId as = 0; as < topo.as_count(); ++as) {
    ASSERT_EQ(got.state(as).candidates, want.state(as).candidates)
        << context << ": AS " << as;
    const auto& node = topo.as_at(as);
    for (std::uint16_t pop = 0; pop < node.pops.size(); ++pop) {
      ASSERT_EQ(got.site_for_pop(as, pop), want.site_for_pop(as, pop))
          << context << ": AS " << as << " pop " << pop;
    }
  }
  for (const topology::BlockInfo& info : topo.blocks()) {
    ASSERT_EQ(got.site_for_block(info.block), want.site_for_block(info.block))
        << context << ": block " << info.block.index();
  }
}

/// One random mutation step, biased toward prepend changes (the paper's
/// sweep) with announce/withdraw mixed in.
anycast::ConfigDelta random_delta(std::mt19937_64& rng,
                                  const anycast::Deployment& current) {
  const auto site = static_cast<anycast::SiteId>(rng() % current.sites.size());
  switch (rng() % 4) {
    case 0:
      return anycast::ConfigDelta::withdraw(site);
    case 1:
      return anycast::ConfigDelta::announce(site);
    default:
      return anycast::ConfigDelta::set_prepend(site,
                                               static_cast<int>(rng() % 4));
  }
}

class DeltaRouting : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaRouting, ApplyMatchesFreshFullCompute) {
  const std::uint64_t seed = GetParam();
  const topology::Topology topo = make_topo(seed);
  const anycast::Deployment base = (seed % 2) ? anycast::make_tangled(topo)
                                              : anycast::make_broot(topo);
  RoutingOptions options;
  options.tiebreak_salt = seed * 0x9e3779b97f4a7c15ULL + 1;

  RoutingEngine engine{topo, base, options};
  const auto initial = engine.full();
  expect_identical(topo, *initial,
                   *RoutingEngine{topo, base, options}.full(), "initial");

  std::mt19937_64 rng{seed ^ 0xdeadbeef};
  auto previous = initial;
  for (int step = 0; step < 6; ++step) {
    const anycast::ConfigDelta delta = random_delta(rng, engine.deployment());
    const ApplyResult result = engine.apply(delta);
    ASSERT_NE(result.table, nullptr);
    ASSERT_LE(result.recomputed_ases, static_cast<std::size_t>(topo.as_count()));

    // Ground truth: a brand-new engine routing the post-delta config.
    RoutingEngine fresh{topo, engine.deployment(), options};
    expect_identical(topo, *result.table, *fresh.full(), "after delta");

    // Unchanged ASes must be structurally shared with the predecessor,
    // and the changed list must cover every AS whose routes differ.
    if (!result.full_recompute) {
      std::size_t changed_idx = 0;
      for (topology::AsId as = 0; as < topo.as_count(); ++as) {
        const bool listed = changed_idx < result.changed_ases.size() &&
                            result.changed_ases[changed_idx] == as;
        if (listed) ++changed_idx;
        if (!listed) {
          ASSERT_EQ(result.table->shared_state(as),
                    previous->shared_state(as))
              << "AS " << as << " not in changed set but state re-created";
        }
      }
    }
    previous = result.table;
  }
}

TEST_P(DeltaRouting, NoOpDeltaReturnsCurrentTable) {
  const std::uint64_t seed = GetParam();
  const topology::Topology topo = make_topo(seed);
  const anycast::Deployment base = anycast::make_tangled(topo);
  RoutingEngine engine{topo, base};
  const auto table = engine.full();

  // An empty delta and a field-level no-op (re-asserting the current
  // prepend) must both return the current table unchanged.
  EXPECT_EQ(engine.apply(anycast::ConfigDelta{}).table, table);
  const auto noop = anycast::ConfigDelta::set_prepend(0, base.sites[0].prepend);
  const ApplyResult result = engine.apply(noop);
  EXPECT_EQ(result.table, table);
  EXPECT_TRUE(result.changed_ases.empty());
}

TEST_P(DeltaRouting, DeltaThenRevertRoundTripsExactly) {
  const std::uint64_t seed = GetParam();
  const topology::Topology topo = make_topo(seed);
  const anycast::Deployment base = anycast::make_tangled(topo);
  RoutingOptions options;
  options.tiebreak_salt = seed + 7;
  RoutingEngine engine{topo, base, options};
  const auto before = engine.full();

  const auto site =
      static_cast<anycast::SiteId>(seed % base.sites.size());
  engine.apply(anycast::ConfigDelta::set_prepend(site, 3));
  engine.apply(anycast::ConfigDelta::withdraw(site));
  engine.apply(anycast::ConfigDelta::announce(site));
  const ApplyResult reverted =
      engine.apply(anycast::ConfigDelta::set_prepend(
          site, base.sites[static_cast<std::size_t>(site)].prepend));

  ASSERT_EQ(anycast::fingerprint(engine.deployment()),
            anycast::fingerprint(base));
  expect_identical(topo, *reverted.table, *before, "after revert");
}

// A delta that moves a site and moves it back has no net effect: like
// any other no-op it returns the current table and visits no AS.
TEST_P(DeltaRouting, NetNoOpDeltaReturnsCurrentTable) {
  const std::uint64_t seed = GetParam();
  const topology::Topology topo = make_topo(seed);
  const anycast::Deployment base = anycast::make_tangled(topo);
  RoutingEngine engine{topo, base};
  const auto table = engine.full();

  const auto site = static_cast<anycast::SiteId>(seed % base.sites.size());
  const int prepend = base.sites[static_cast<std::size_t>(site)].prepend;
  anycast::ConfigDelta delta;
  for (const anycast::ConfigDelta& step :
       {anycast::ConfigDelta::set_prepend(site, prepend + 2),
        anycast::ConfigDelta::withdraw(site),
        anycast::ConfigDelta::announce(site),
        anycast::ConfigDelta::set_prepend(site, prepend)})
    delta.sites.insert(delta.sites.end(), step.sites.begin(),
                       step.sites.end());
  const ApplyResult result = engine.apply(delta);
  EXPECT_EQ(result.table, table);
  EXPECT_EQ(result.recomputed_ases, 0u);
  EXPECT_TRUE(result.changed_ases.empty());
  EXPECT_FALSE(result.full_recompute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaRouting,
                         ::testing::Range<std::uint64_t>(1, 51));

/// One batch of 1-3 site changes, the shape /load and the playbook
/// send: prepend depths mostly, withdraws and announces mixed in; a site
/// may appear twice.
anycast::ConfigDelta random_multi_site_delta(std::mt19937_64& rng,
                                             std::size_t site_count) {
  anycast::ConfigDelta delta;
  const std::size_t changes = 1 + rng() % 3;
  for (std::size_t k = 0; k < changes; ++k) {
    anycast::SiteDelta change;
    change.site = static_cast<anycast::SiteId>(rng() % site_count);
    switch (rng() % 4) {
      case 0:
        change.enabled = false;
        break;
      case 1:
        change.enabled = true;
        break;
      default:
        change.prepend = static_cast<int>(rng() % 4);
    }
    delta.sites.push_back(change);
  }
  return delta;
}

class ScaleDeltaRouting : public ::testing::TestWithParam<std::uint64_t> {};

// Scale-generator worlds with nine generated sites over eight transits,
// so two sites share an upstream.
TEST_P(ScaleDeltaRouting, MultiSiteDeltasMatchFreshFullCompute) {
  const std::uint64_t seed = GetParam();
  topology::ScaleConfig config;
  config.seed = seed;
  config.as_count = 3'000;
  config.target_blocks = 30'000;
  config.transit_count = 8;
  config.threads = 1;
  const topology::Topology topo = topology::generate_scale_topology(config);
  const anycast::Deployment base = anycast::make_generated(topo, 9, seed);
  ASSERT_EQ(base.sites.size(), 9u);
  RoutingOptions options;
  options.tiebreak_salt = seed * 0x9e3779b97f4a7c15ULL + 3;

  RoutingEngine engine{topo, base, options};
  engine.full();
  std::mt19937_64 rng{seed ^ 0x5ca1e};
  std::size_t changed = 0;
  for (int step = 0; step < 10; ++step) {
    const ApplyResult result =
        engine.apply(random_multi_site_delta(rng, base.sites.size()));
    ASSERT_NE(result.table, nullptr);
    EXPECT_FALSE(result.full_recompute);
    changed += result.changed_ases.size();
    RoutingEngine fresh{topo, engine.deployment(), options};
    expect_identical(topo, *result.table, *fresh.full(), "scale delta");
  }
  EXPECT_GT(changed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleDeltaRouting,
                         ::testing::Range<std::uint64_t>(1, 6));

// Writer threads push deltas through one engine while reader threads
// walk whatever table is current. Tables are immutable and apply() is
// serialized internally, so this must be clean under TSan and every
// observed table must be internally consistent.
TEST(DeltaRoutingConcurrency, ConcurrentApplyAndRead) {
  const topology::Topology topo = make_topo(99);
  const anycast::Deployment base = anycast::make_tangled(topo);
  RoutingEngine engine{topo, base};
  engine.full();

  constexpr int kThreads = 8;
  constexpr int kStepsPerWriter = 12;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> tables_read{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    if (t % 2 == 0) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng{static_cast<std::uint64_t>(t) * 1337 + 1};
        for (int step = 0; step < kStepsPerWriter; ++step) {
          const auto site =
              static_cast<anycast::SiteId>(rng() % base.sites.size());
          const auto delta =
              (rng() % 2) ? anycast::ConfigDelta::set_prepend(
                                site, static_cast<int>(rng() % 4))
                          : anycast::ConfigDelta::announce(site);
          const ApplyResult result = engine.apply(delta);
          ASSERT_NE(result.table, nullptr);
        }
      });
    } else {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          const auto table = engine.current();
          ASSERT_NE(table, nullptr);
          for (topology::AsId as = 0; as < topo.as_count(); ++as) {
            const AsRoutingState& state = table->state(as);
            for (const CandidateRoute& cand : state.candidates)
              ASSERT_GE(cand.site, 0);
          }
          tables_read.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }
  for (int t = 0; t < kThreads; t += 2) threads[static_cast<std::size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  for (int t = 1; t < kThreads; t += 2) threads[static_cast<std::size_t>(t)].join();
  EXPECT_GT(tables_read.load(), 0u);

  // The final state must still equal a fresh computation of wherever the
  // interleaved writers ended up.
  RoutingEngine fresh{topo, engine.deployment()};
  expect_identical(topo, *engine.current(), *fresh.full(), "post-concurrency");
}

}  // namespace
}  // namespace vp::bgp
