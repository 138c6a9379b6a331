// Cross-seed sweeps of the full measurement pipeline: the properties the
// library guarantees must not depend on one lucky seed.
#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "core/probe_engine.hpp"

namespace vp {
namespace {

class PipelineSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    analysis::ScenarioConfig config;
    config.seed = GetParam();
    config.scale = 0.06;  // ~7k blocks; six seeds stay fast
    scenario_.emplace(config);
  }
  std::optional<analysis::Scenario> scenario_;
};

TEST_P(PipelineSweep, MeasurementAgreesWithGroundTruthEverywhere) {
  const auto routes_ptr = scenario_->route(scenario_->broot());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 1;
  const auto round = scenario_->engine().run(routes, {probe, 0});
  ASSERT_GT(round.map.mapped_blocks(), 1000u);
  for (const auto& [block, site] : round.map.entries()) {
    ASSERT_EQ(site,
              scenario_->internet().ground_truth_site(routes, block, 0))
        << "seed " << GetParam() << " block " << block.to_string();
  }
}

TEST_P(PipelineSweep, ResponseRateStaysInHitlistBand) {
  const auto routes_ptr = scenario_->route(scenario_->broot());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 2;
  const auto round = scenario_->engine().run(routes, {probe, 0});
  const double rate =
      static_cast<double>(round.map.mapped_blocks()) /
      static_cast<double>(round.map.blocks_probed);
  EXPECT_GT(rate, 0.40) << "seed " << GetParam();
  EXPECT_LT(rate, 0.70) << "seed " << GetParam();
}

TEST_P(PipelineSweep, PrependingNeverDecreasesLaxShare) {
  double previous = -1.0;
  int step = 0;
  for (const auto& [site, amount] :
       std::vector<std::pair<const char*, int>>{
           {"LAX", 1}, {"LAX", 0}, {"MIA", 1}, {"MIA", 3}}) {
    const auto deployment = scenario_->broot().with_prepend(site, amount);
    const auto routes_ptr = scenario_->route(deployment);
    const auto& routes = *routes_ptr;
    core::ProbeConfig probe;
    probe.measurement_id = static_cast<std::uint32_t>(10 + step++);
    const auto map =
        scenario_->engine().run(routes, {probe, 0}).map;
    const double lax = map.fraction_to(0);
    EXPECT_GE(lax, previous - 1e-9)
        << "seed " << GetParam() << " at step " << step;
    previous = lax;
  }
}

TEST_P(PipelineSweep, TangledHidesGruAndServesTheRest) {
  const auto routes_ptr = scenario_->route(scenario_->tangled());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 3;
  const auto map = scenario_->engine().run(routes, {probe, 0}).map;
  const auto counts =
      map.per_site_counts(scenario_->tangled().sites.size());
  const auto gru = scenario_->tangled().site_by_code("GRU");
  EXPECT_EQ(counts[static_cast<std::size_t>(*gru)], 0u);
  std::size_t nonempty = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) nonempty += counts[s] > 0;
  EXPECT_GE(nonempty, 6u) << "seed " << GetParam();
}

TEST_P(PipelineSweep, CleaningDropsAreBounded) {
  const auto routes_ptr = scenario_->route(scenario_->broot());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 4;
  const auto round = scenario_->engine().run(routes, {probe, 0});
  const auto& s = round.map.cleaning;
  // Drops exist but stay a small fraction of raw replies on every seed.
  EXPECT_GT(s.dropped(), 0u);
  EXPECT_LT(static_cast<double>(s.dropped()),
            0.12 * static_cast<double>(s.raw_replies));
  EXPECT_EQ(s.kept + s.dropped(), s.raw_replies);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace vp
