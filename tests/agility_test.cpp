// Adversarial workload generators (agility/attack.hpp) and the playbook
// scoring primitives (agility/playbook.hpp): deterministic generation,
// shape invariants per attack kind, and the exact integer objective.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "agility/attack.hpp"
#include "agility/playbook.hpp"
#include "analysis/scenario.hpp"
#include "geo/world.hpp"
#include "util/atomic_file.hpp"

namespace vp::agility {
namespace {

const analysis::Scenario& shared_scenario() {
  static const analysis::Scenario* scenario = [] {
    analysis::ScenarioConfig config;
    config.scale = 0.05;
    return new analysis::Scenario{config};
  }();
  return *scenario;
}

struct Fixture {
  const analysis::Scenario& scenario = shared_scenario();
  const anycast::Deployment& tangled = scenario.tangled();
  dnsload::LoadModel load = scenario.broot_load(0x20170515ull);
  std::shared_ptr<const bgp::RoutingTable> routes =
      scenario.route(tangled);

  OfferedLoad offered(const AttackSpec& spec) const {
    return offered_load(scenario.topo(), load, *routes, spec);
  }

  /// The attack portion of row i: offered minus the block's legitimate
  /// baseline (both in exact integer milli-q/day).
  std::uint64_t attack_part(const OfferedLoad& out, std::size_t i) const {
    const auto& info = scenario.topo().blocks()[out.rows[i]];
    const auto legit = static_cast<std::uint64_t>(
        std::llround(load.daily_queries(info.block) * 1000.0));
    return out.milliq[i] > legit ? out.milliq[i] - legit : 0;
  }
};

TEST(AttackKind, RoundTripsThroughStrings) {
  for (const AttackKind kind :
       {AttackKind::kPolarized, AttackKind::kFlashCrowd,
        AttackKind::kSpoofedFlood, AttackKind::kVolumetric}) {
    const auto parsed = attack_kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(attack_kind_from_string("flash"), AttackKind::kFlashCrowd);
  EXPECT_EQ(attack_kind_from_string("spoofed"), AttackKind::kSpoofedFlood);
  EXPECT_FALSE(attack_kind_from_string("syn-flood").has_value());
}

TEST(AttackGenerator, SameSpecSameBytesDifferentSeedDifferentLoad) {
  const Fixture f;
  AttackSpec spec;
  spec.kind = AttackKind::kPolarized;
  spec.seed = 7;
  const OfferedLoad a = f.offered(spec);
  const OfferedLoad b = f.offered(spec);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.milliq, b.milliq);
  EXPECT_EQ(a.total_milliq, b.total_milliq);
  spec.seed = 8;
  const OfferedLoad c = f.offered(spec);
  EXPECT_NE(a.milliq, c.milliq);
}

TEST(AttackGenerator, AttackVolumeMatchesMagnitude) {
  const Fixture f;
  for (const AttackKind kind :
       {AttackKind::kPolarized, AttackKind::kFlashCrowd,
        AttackKind::kSpoofedFlood, AttackKind::kVolumetric}) {
    AttackSpec spec;
    spec.kind = kind;
    spec.magnitude = 3.0;
    const OfferedLoad out = f.offered(spec);
    const double want = spec.magnitude * f.load.total_daily_queries() * 1000.0;
    EXPECT_NEAR(static_cast<double>(out.attack_milliq), want, want * 1e-3)
        << to_string(kind);
    EXPECT_NEAR(static_cast<double>(out.legit_milliq),
                f.load.total_daily_queries() * 1000.0,
                f.load.total_daily_queries() * 2.0)
        << to_string(kind);  // per-block llround, ±0.5 milli-q each
    EXPECT_EQ(out.total_milliq, out.legit_milliq + out.attack_milliq);
  }
}

TEST(AttackGenerator, PolarizedConcentratesInTargetCatchment) {
  const Fixture f;
  AttackSpec spec;
  spec.kind = AttackKind::kPolarized;
  spec.target_site = *f.tangled.site_by_code("MIA");
  const OfferedLoad out = f.offered(spec);
  EXPECT_EQ(out.resolved_target, spec.target_site);
  std::uint64_t on_target = 0;
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    const std::uint64_t attack = f.attack_part(out, i);
    if (attack == 0) continue;
    const auto& info = f.scenario.topo().blocks()[out.rows[i]];
    if (f.routes->site_for_block(info) == spec.target_site)
      on_target += attack;
  }
  // The bot population lives entirely inside the mapped catchment.
  EXPECT_GE(static_cast<double>(on_target),
            0.999 * static_cast<double>(out.attack_milliq));
  EXPECT_GT(out.attack_blocks, 10u);
}

TEST(AttackGenerator, SpoofedFloodSpreadsAcrossSites) {
  const Fixture f;
  AttackSpec spec;
  spec.kind = AttackKind::kSpoofedFlood;
  spec.spoof_fraction = 0.25;
  const OfferedLoad out = f.offered(spec);
  EXPECT_EQ(out.resolved_target, anycast::kUnknownSite);
  // Roughly spoof_fraction of all blocks appear as sources...
  const double blocks = static_cast<double>(f.scenario.topo().blocks().size());
  EXPECT_NEAR(static_cast<double>(out.attack_blocks), 0.25 * blocks,
              0.05 * blocks);
  // ...and the flood lands on several sites, not one catchment.
  std::vector<std::uint64_t> per_site(f.tangled.sites.size(), 0);
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    const std::uint64_t attack = f.attack_part(out, i);
    if (attack == 0) continue;
    const auto site =
        f.routes->site_for_block(f.scenario.topo().blocks()[out.rows[i]]);
    if (site >= 0) per_site[static_cast<std::size_t>(site)] += attack;
  }
  EXPECT_GE(std::count_if(per_site.begin(), per_site.end(),
                          [](std::uint64_t q) { return q > 0; }),
            3);
}

TEST(AttackGenerator, VolumetricUsesFewHeavySources) {
  const Fixture f;
  AttackSpec spec;
  spec.kind = AttackKind::kVolumetric;
  spec.source_count = 12;
  spec.target_site = *f.tangled.site_by_code("MIA");
  const OfferedLoad out = f.offered(spec);
  EXPECT_LE(out.attack_blocks, 12u);
  EXPECT_GT(out.attack_blocks, 0u);
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    if (f.attack_part(out, i) == 0) continue;
    const auto& info = f.scenario.topo().blocks()[out.rows[i]];
    EXPECT_EQ(f.routes->site_for_block(info), spec.target_site);
  }
}

TEST(AttackGenerator, FlashCrowdIsGeographicallyLocal) {
  const Fixture f;
  AttackSpec spec;
  spec.kind = AttackKind::kFlashCrowd;
  spec.radius_km = 1500.0;
  const OfferedLoad out = f.offered(spec);
  EXPECT_GT(out.attack_blocks, 0u);
  // All surging blocks fit in a disc of radius_km, so no two of them are
  // more than one diameter apart.
  std::optional<geo::LatLon> first;
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    if (f.attack_part(out, i) == 0) continue;
    const auto& info = f.scenario.topo().blocks()[out.rows[i]];
    const auto geo = f.scenario.topo().geo(info.block);
    ASSERT_NE(geo, nullptr);
    if (!first) first = geo->location;
    EXPECT_LE(geo::distance_km(*first, geo->location),
              2.0 * spec.radius_km + 1.0);
  }
}

// Each kind's offered load at its default spec, bit for bit: the rows,
// their milli-query volumes and the three totals.
TEST(AttackGenerator, OfferedLoadIsPinned) {
  const Fixture f;
  const std::pair<AttackKind, std::uint32_t> kPins[] = {
      {AttackKind::kPolarized, 0x55e378e8u},
      {AttackKind::kFlashCrowd, 0x44bfa0e4u},
      {AttackKind::kSpoofedFlood, 0x7c7fd892u},
      {AttackKind::kVolumetric, 0x501bc184u},
  };
  for (const auto& [kind, pin] : kPins) {
    AttackSpec spec;
    spec.kind = kind;
    const OfferedLoad out = f.offered(spec);
    ASSERT_EQ(out.rows.size(), out.milliq.size());
    std::uint32_t crc = util::crc32(out.rows.data(),
                                    out.rows.size() * sizeof out.rows[0]);
    crc = util::crc32(out.milliq.data(),
                      out.milliq.size() * sizeof out.milliq[0], crc);
    for (const std::uint64_t total :
         {out.legit_milliq, out.attack_milliq, out.total_milliq})
      crc = util::crc32(&total, sizeof total, crc);
    EXPECT_EQ(crc, pin) << to_string(kind) << " " << out.rows.size()
                        << " rows";
  }
}

TEST(AttackGenerator, ResolveTargetHonorsExplicitSiteAndFallsBack) {
  const Fixture f;
  AttackSpec spec;
  spec.kind = AttackKind::kPolarized;
  spec.target_site = *f.tangled.site_by_code("HND");
  EXPECT_EQ(resolve_target(spec, f.tangled), spec.target_site);
  // An out-of-range target falls back to a seed-chosen enabled site.
  spec.target_site = static_cast<anycast::SiteId>(f.tangled.sites.size());
  const anycast::SiteId chosen = resolve_target(spec, f.tangled);
  ASSERT_GE(chosen, 0);
  EXPECT_TRUE(f.tangled.sites[static_cast<std::size_t>(chosen)].enabled);
  // Untargeted kinds never resolve a site.
  spec.kind = AttackKind::kSpoofedFlood;
  EXPECT_EQ(resolve_target(spec, f.tangled), anycast::kUnknownSite);
}

TEST(Score, FinalizeAppliesBreakdownModel) {
  CapacityPlan capacity;
  capacity.site_milliq = {100, 100, 100};
  Score score;
  score.site_milliq = {90, 150, 0};  // site 1 past capacity
  score.unknown_milliq = 7;
  finalize(score, capacity);
  EXPECT_EQ(score.overloaded_sites, 1u);
  EXPECT_EQ(score.absorbed_milliq, 90u);
  // An overloaded site loses ALL of its traffic, and unreachable traffic
  // is always broken.
  EXPECT_EQ(score.broken_milliq, 150u + 7u);
  EXPECT_DOUBLE_EQ(score.overload_fraction(), 1.0 / 3.0);
  // Exactly at capacity is fine.
  score.site_milliq = {100, 100, 100};
  score.unknown_milliq = 0;
  finalize(score, capacity);
  EXPECT_EQ(score.overloaded_sites, 0u);
  EXPECT_EQ(score.broken_milliq, 0u);
  EXPECT_EQ(score.absorbed_milliq, 300u);
}

TEST(Score, BetterIsLexicographicAndTotal) {
  Score a, b;
  a.broken_milliq = 10;
  b.broken_milliq = 20;
  EXPECT_TRUE(better(a, 5, b, 0));
  b.broken_milliq = 10;
  a.overloaded_sites = 1;
  b.overloaded_sites = 2;
  EXPECT_TRUE(better(a, 5, b, 0));
  b.overloaded_sites = 1;
  a.shifted_blocks = 3;
  b.shifted_blocks = 4;
  EXPECT_TRUE(better(a, 5, b, 0));
  b.shifted_blocks = 3;
  // Full tie: enumeration index decides, so the order is total.
  EXPECT_TRUE(better(a, 0, b, 5));
  EXPECT_FALSE(better(a, 5, b, 0));
}

}  // namespace
}  // namespace vp::agility
