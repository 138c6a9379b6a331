// Figure 5: AS-path prepending sweep on B-Root — fraction of the
// catchment going to LAX under {+1 LAX, equal, +1 MIA, +2 MIA, +3 MIA},
// measured both with Atlas (VPs) and Verfploeter (/24 blocks).
#include "analysis/scenario.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env()};
  bench::banner("Figure 5", "prepending sweep: fraction of catchment to LAX",
                scenario);

  struct Config {
    const char* label;
    const char* site;
    int amount;
  };
  const Config configs[] = {{"+1 LAX", "LAX", 1},
                            {"equal", "LAX", 0},
                            {"+1 MIA", "MIA", 1},
                            {"+2 MIA", "MIA", 2},
                            {"+3 MIA", "MIA", 3}};

  util::Table table{
      {"prepending", "Atlas (VPs)", "Verfploeter (/24 blocks)"},
      {util::Align::kLeft}};
  std::vector<double> verf_series, atlas_series;
  // The sweep is one routing session: each configuration is reached from
  // the previous one by an incremental delta apply, so only the ASes
  // whose best path changes are recomputed between rows.
  auto session = scenario.delta_session(scenario.broot(), analysis::kAprilEpoch);
  for (const Config& config : configs) {
    // Each prepending configuration was "taken once on a different day"
    // (§6.1) — model with distinct rounds on the April epoch.
    const auto deployment =
        scenario.broot().with_prepend(config.site, config.amount);
    const auto routes_ptr = session.route_to(deployment);
    const auto& routes = *routes_ptr;
    core::ProbeConfig probe;
    probe.measurement_id =
        static_cast<std::uint32_t>(5000 + config.amount * 7 +
                                   (config.site[0] == 'L' ? 100 : 0));
    const auto map =
        scenario.engine()
            .run(routes,
                 {probe, static_cast<std::uint32_t>(&config - configs)})
            .map;
    const auto atlas = scenario.atlas().measure(
        routes, scenario.internet().flips(),
        static_cast<std::uint32_t>(&config - configs));
    verf_series.push_back(map.fraction_to(0));
    atlas_series.push_back(atlas.fraction_to(0));
    table.add_row({config.label, util::percent(atlas.fraction_to(0)),
                   util::percent(map.fraction_to(0))});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("shape checks (paper: Figure 5, SBA-4-20/21 + SBV-4-21):\n");
  bool monotone = true;
  for (std::size_t i = 1; i < verf_series.size(); ++i)
    monotone &= verf_series[i] >= verf_series[i - 1] - 1e-9;
  bench::shape("fraction to LAX rises monotonically with MIA prepending",
               "0.25 -> 0.9",
               util::percent(verf_series.front()) + " -> " +
                   util::percent(verf_series.back()),
               monotone);
  bench::shape("no prepending: LAX already dominates", "74-78%",
               util::percent(verf_series[1]),
               verf_series[1] > 0.6 && verf_series[1] < 0.95);
  bench::shape("+1 LAX sends most traffic to MIA", "~25% LAX",
               util::percent(verf_series[0]), verf_series[0] < 0.5);
  bench::shape("a residue sticks to MIA even at +3", "<100%",
               util::percent(verf_series.back()), verf_series.back() < 0.999);
  // Both measurement systems should tell the same story (§6.1: "both
  // measurement systems are useful to evaluate routing options").
  double max_gap = 0;
  for (std::size_t i = 0; i < verf_series.size(); ++i)
    max_gap = std::max(max_gap, std::abs(verf_series[i] - atlas_series[i]));
  bench::shape("Atlas and Verfploeter roughly agree", "few % apart",
               util::percent(max_gap) + " max gap", max_gap < 0.25);
  return 0;
}
