#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>


#include "analysis/scenario.hpp"
#include "anycast/deployment.hpp"
#include "topology/generator.hpp"

namespace vp::anycast {
namespace {

topology::Topology small_topology() {
  topology::TopologyConfig config;
  config.seed = 12;
  config.target_blocks = 3'000;
  return topology::generate_topology(config);
}

TEST(Deployment, BRootMatchesTable3) {
  const auto topo = small_topology();
  const Deployment broot = make_broot(topo);
  EXPECT_EQ(broot.name, "B-Root");
  ASSERT_EQ(broot.sites.size(), 2u);
  EXPECT_EQ(broot.sites[0].code, "LAX");
  EXPECT_EQ(broot.sites[0].upstream.value, 226u);
  EXPECT_EQ(broot.sites[1].code, "MIA");
  EXPECT_EQ(broot.sites[1].upstream.value, 20080u);
  EXPECT_EQ(broot.active_site_count(), 2u);
  EXPECT_TRUE(broot.service_prefix.contains(broot.measurement_address));
  // Every upstream must exist in the generated topology.
  for (const AnycastSite& site : broot.sites)
    EXPECT_NE(topo.find_as(site.upstream), topology::kNoAs) << site.code;
}

TEST(Deployment, TangledMatchesTable3) {
  const auto topo = small_topology();
  const Deployment tangled = make_tangled(topo);
  ASSERT_EQ(tangled.sites.size(), 9u);
  // Table 3 upstream assignments.
  const std::pair<const char*, std::uint32_t> expected[] = {
      {"SYD", 20473}, {"CDG", 20473}, {"HND", 2500},  {"ENS", 1103},
      {"LHR", 20473}, {"MIA", 20080}, {"IAD", 1972},  {"GRU", 1251},
      {"CPH", 39839}};
  for (const auto& [code, asn] : expected) {
    const auto site = tangled.site_by_code(code);
    ASSERT_TRUE(site.has_value()) << code;
    EXPECT_EQ(tangled.sites[static_cast<std::size_t>(*site)].upstream.value,
              asn)
        << code;
    EXPECT_NE(topo.find_as(topology::AsNumber{asn}), topology::kNoAs);
  }
  // Sao Paulo's announcement is hidden behind Miami's link (§4.2).
  EXPECT_TRUE(
      tangled.sites[static_cast<std::size_t>(*tangled.site_by_code("GRU"))]
          .hidden);
  EXPECT_EQ(tangled.active_site_count(), 8u);
}

TEST(Deployment, SiteByCodeMissIsEmpty) {
  const auto topo = small_topology();
  const Deployment broot = make_broot(topo);
  EXPECT_FALSE(broot.site_by_code("XXX").has_value());
}

TEST(Deployment, WithPrependIsNonDestructive) {
  const auto topo = small_topology();
  const Deployment broot = make_broot(topo);
  const Deployment prepended = broot.with_prepend("MIA", 3);
  EXPECT_EQ(broot.sites[1].prepend, 0);
  EXPECT_EQ(prepended.sites[1].prepend, 3);
  EXPECT_EQ(prepended.sites[0].prepend, 0);
  // Unknown code: no change anywhere.
  const Deployment unchanged = broot.with_prepend("NOPE", 5);
  for (const auto& site : unchanged.sites) EXPECT_EQ(site.prepend, 0);
}

TEST(Scenario, EnvOverridesAreParsed) {
  setenv("VP_SCALE", "0.5", 1);
  setenv("VP_SEED", "123", 1);
  setenv("VP_GEN_ASES", "4294967295", 1);
  const auto config = analysis::ScenarioConfig::from_env();
  EXPECT_DOUBLE_EQ(config.scale, 0.5);
  EXPECT_EQ(config.seed, 123u);
  EXPECT_EQ(config.generated_ases, 4294967295u);
  // An unset or empty VP_SCALE keeps the caller's default.
  unsetenv("VP_SCALE");
  EXPECT_DOUBLE_EQ(analysis::ScenarioConfig::from_env(0.4).scale, 0.4);
  setenv("VP_SCALE", "", 1);
  EXPECT_DOUBLE_EQ(analysis::ScenarioConfig::from_env(0.4).scale, 0.4);
  setenv("VP_GEN_ASES", "", 1);
  EXPECT_EQ(analysis::ScenarioConfig::from_env().generated_ases, 0u);
  // VP_SEED parses like --seed: a signed long, kept as its bit pattern.
  setenv("VP_SEED", "-1", 1);
  EXPECT_EQ(analysis::ScenarioConfig::from_env().seed, ~std::uint64_t{0});
  unsetenv("VP_SCALE");
  unsetenv("VP_SEED");
  unsetenv("VP_GEN_ASES");
}

// Each knob parses whole or throws naming its variable; nothing here
// builds a Scenario from a rejected value.
TEST(Scenario, MalformedEnvKnobsThrow) {
  const struct {
    const char* name;
    const char* value;
  } cases[] = {{"VP_GEN_ASES", "-1"},   {"VP_GEN_ASES", "5000000000"},
               {"VP_GEN_ASES", "abc"},  {"VP_SEED", "12x"},
               {"VP_SCALE", "abc"},     {"VP_SCALE", "-2"},
               {"VP_SCALE", "0"},       {"VP_SCALE", "inf"}};
  for (const auto& c : cases) {
    setenv(c.name, c.value, 1);
    try {
      (void)analysis::ScenarioConfig::from_env();
      ADD_FAILURE() << c.name << "=" << c.value << " did not throw";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find(c.name), std::string::npos)
          << error.what();
    }
    unsetenv(c.name);
  }
}

TEST(Scenario, BuildsAllComponentsCoherently) {
  analysis::ScenarioConfig config;
  config.seed = 5;
  config.scale = 0.04;
  const analysis::Scenario scenario{config};
  EXPECT_GT(scenario.topo().as_count(), 50u);
  EXPECT_GT(scenario.hitlist().size(), 3'000u);
  EXPECT_LE(scenario.hitlist().size(), scenario.topo().block_count());
  EXPECT_GE(scenario.atlas().vps().size(), 24u);
  EXPECT_LE(scenario.atlas_small().vps().size(),
            scenario.atlas().vps().size());
  // Load models for different dates share membership.
  const auto april = scenario.broot_load(1);
  const auto may = scenario.broot_load(2);
  EXPECT_EQ(april.blocks().size(), may.blocks().size());
  // Routing works for both presets.
  EXPECT_NO_THROW({
    const auto r1_ptr = scenario.route(scenario.broot());
    const auto& r1 = *r1_ptr;
    const auto r2_ptr = scenario.route(scenario.tangled());
    const auto& r2 = *r2_ptr;
    (void)r1;
    (void)r2;
  });
}

}  // namespace
}  // namespace vp::anycast
