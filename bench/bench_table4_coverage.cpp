// Table 4: coverage of B-Root from RIPE Atlas vs Verfploeter —
// considered / non-responding / responding / geolocatable VPs and /24s,
// plus the unique-block overlap and the ~430x coverage ratio.
#include "analysis/coverage.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env()};
  bench::banner("Table 4", "coverage of B-Root: Atlas vs Verfploeter",
                scenario);

  const auto routes_ptr = scenario.route(scenario.broot(), analysis::kMayEpoch);
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 515;  // the SBV-5-15 dataset
  const auto round = scenario.engine().run(routes, {probe, 0});
  const auto campaign = scenario.atlas().measure(
      routes, scenario.internet().flips(), 0);
  const auto report = analysis::compute_coverage(
      scenario.topo(), scenario.atlas(), campaign, round.map);

  util::Table table{{"", "RIPE Atlas (VPs)", "(/24s)", "Verfploeter (/24s)"},
                    {util::Align::kLeft}};
  table.add_row({"considered", util::with_commas(report.atlas_vps_considered),
                 util::with_commas(report.atlas_blocks_considered),
                 util::with_commas(report.verf_blocks_considered)});
  table.add_row({"non-responding",
                 util::with_commas(report.atlas_vps_nonresponding), "",
                 util::with_commas(report.verf_blocks_nonresponding)});
  table.add_row({"responding", util::with_commas(report.atlas_vps_responding),
                 util::with_commas(report.atlas_blocks_responding),
                 util::with_commas(report.verf_blocks_responding)});
  table.add_row({"no location", "0", "0",
                 util::with_commas(report.verf_blocks_no_location)});
  table.add_row({"geolocatable", util::with_commas(report.atlas_vps_responding),
                 util::with_commas(report.atlas_blocks_geolocatable),
                 util::with_commas(report.verf_blocks_geolocatable)});
  table.add_separator();
  table.add_row({"unique", "", util::with_commas(report.atlas_unique_blocks),
                 util::with_commas(report.verf_unique_blocks)});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("shape checks (paper values from Table 4, SBA/SBV-5-15):\n");
  const double ratio = report.coverage_ratio();
  bench::shape("Verfploeter sees 100x+ more blocks than Atlas", "430x",
               util::fixed(ratio, 0) + "x", ratio > 100);
  const double overlap = report.atlas_overlap_fraction();
  bench::shape("most Atlas blocks also seen by Verfploeter", "77%",
               util::percent(overlap), overlap > 0.55 && overlap < 0.95);
  const double response =
      static_cast<double>(report.verf_blocks_responding) /
      static_cast<double>(report.verf_blocks_considered);
  bench::shape("hitlist response rate", "55%", util::percent(response),
               response > 0.45 && response < 0.65);
  const double located =
      static_cast<double>(report.verf_blocks_no_location) /
      static_cast<double>(report.verf_blocks_responding);
  bench::shape("tiny un-geolocatable residue", "678 of 3.79M",
               util::percent(located), located > 0 && located < 0.005);
  return 0;
}
