// Table 6: quantifying B-Root's anycast split under different measurement
// methods and dates — Atlas VPs, Verfploeter blocks, load-weighted
// Verfploeter, and the actual measured load. Includes the §5.5
// long-duration-prediction panel (April data predicting May traffic).
#include "analysis/catchment_diff.hpp"
#include "analysis/load_analysis.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env()};
  bench::banner("Table 6", "%LAX by measurement method and date", scenario);

  // Two routing epochs: 2017-04-21 and 2017-05-15 (§5.5: routing shifted
  // between the B-Root scans).
  const auto april_ptr = scenario.route(scenario.broot(), analysis::kAprilEpoch);
  const auto& april = *april_ptr;
  const auto may_ptr = scenario.route(scenario.broot(), analysis::kMayEpoch);
  const auto& may = *may_ptr;

  core::ProbeConfig probe;
  probe.measurement_id = 421;
  const auto verf_april =
      scenario.engine().run(april, {probe, 10}).map;
  probe.measurement_id = 515;
  const auto verf_may = scenario.engine().run(may, {probe, 20}).map;

  const auto atlas_april = scenario.atlas_small().measure(
      april, scenario.internet().flips(), 10);
  const auto atlas_may =
      scenario.atlas().measure(may, scenario.internet().flips(), 20);

  const auto load_april = scenario.broot_load(0x20170412);  // LB-4-12
  const auto load_may = scenario.broot_load(0x20170515);    // LB-5-15

  const auto predicted =
      analysis::predict_load(load_may, verf_may, 2);
  const auto actual = analysis::actual_load(
      load_may, may, scenario.internet().flips(), 20);

  util::Table table{{"date", "method", "measurement", "% LAX"},
                    {util::Align::kLeft, util::Align::kLeft}};
  const auto pct = [](double f) { return util::percent(f); };
  table.add_row({"2017-04-21", "Atlas",
                 util::with_commas(atlas_april.responding) + " VPs",
                 pct(atlas_april.fraction_to(0))});
  table.add_row({"2017-05-15", "",
                 util::with_commas(atlas_may.responding) + " VPs",
                 pct(atlas_may.fraction_to(0))});
  table.add_row({"2017-04-21", "Verfploeter",
                 util::with_commas(verf_april.mapped_blocks()) + " /24s",
                 pct(verf_april.fraction_to(0))});
  table.add_row({"2017-05-15", "",
                 util::with_commas(verf_may.mapped_blocks()) + " /24s",
                 pct(verf_may.fraction_to(0))});
  table.add_row({"2017-05-15", "+ load",
                 util::si_count(predicted.total(false)) + " q/day",
                 pct(predicted.fraction_to(0))});
  table.add_separator();
  table.add_row({"2017-05-15", "Act. Load",
                 util::si_count(actual.total(false)) + " q/day",
                 pct(actual.fraction_to(0))});
  std::printf("%s\n", table.to_string().c_str());

  const double blocks_may = verf_may.fraction_to(0);
  const double load_weighted = predicted.fraction_to(0);
  const double truth = actual.fraction_to(0);
  std::printf("shape checks (paper: Table 6):\n");
  bench::shape("LAX serves the large majority of blocks", "82-88%",
               util::percent(blocks_may), blocks_may > 0.6);
  bench::shape("load weighting moves the estimate toward actual",
               "81.6 vs 81.4", util::percent(load_weighted) + " vs " +
               util::percent(truth),
               std::abs(load_weighted - truth) <
                   std::abs(blocks_may - truth));
  bench::shape("load-weighted prediction within ~1% of actual", "0.2%",
               util::percent(std::abs(load_weighted - truth)),
               std::abs(load_weighted - truth) < 0.03);
  bench::shape("routing shifted between the dates", "82.4 -> 87.8",
               util::percent(verf_april.fraction_to(0)) + " -> " +
                   util::percent(blocks_may),
               std::abs(verf_april.fraction_to(0) - blocks_may) > 0.005);

  // --- §5.5 long-duration prediction panel --------------------------------
  const auto stale = analysis::predict_load(load_april, verf_april, 2);
  std::printf("\nlong-duration prediction (§5.5):\n");
  util::Table panel{{"prediction basis", "% LAX", "abs. error vs actual"},
                    {util::Align::kLeft}};
  panel.add_row({"same-day (May scan x May load)",
                 util::percent(load_weighted),
                 util::percent(std::abs(load_weighted - truth))});
  panel.add_row({"month-old (Apr scan x Apr load)",
                 util::percent(stale.fraction_to(0)),
                 util::percent(std::abs(stale.fraction_to(0) - truth))});
  std::printf("%s\n", panel.to_string().c_str());
  bench::shape("stale data predicts worse (76.2 vs 81.6 in paper)",
               "5.4% error",
               util::percent(std::abs(stale.fraction_to(0) - truth)),
               std::abs(stale.fraction_to(0) - truth) >=
                   std::abs(load_weighted - truth));

  // What actually moved between the dates (the routing-shift anatomy).
  const auto diff = analysis::diff_catchments(scenario.topo(), verf_april,
                                              verf_may, load_may);
  std::printf("\nApril -> May catchment diff: %s blocks moved (%s of "
              "blocks mapped in both), carrying %s q/day\n",
              util::with_commas(diff.moved_blocks).c_str(),
              util::percent(diff.moved_fraction()).c_str(),
              util::si_count(diff.moved_queries).c_str());
  if (!diff.top_ases.empty()) {
    std::printf("largest movers: ");
    for (std::size_t i = 0; i < diff.top_ases.size() && i < 3; ++i) {
      std::printf("%s%s (%s)", i ? ", " : "",
                  diff.top_ases[i].name.c_str(),
                  util::with_commas(diff.top_ases[i].moved_blocks).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
