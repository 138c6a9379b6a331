// Capacity planning with calibrated load prediction (paper §3.2, §5.5):
// combine a Verfploeter catchment map of a *test prefix* with historical
// query logs to predict what each site will serve before changing the
// production announcement — then check the prediction against the
// simulator's ground truth (the luxury the paper's operators didn't have).
//
// Run:  ./load_prediction
#include <cstdio>

#include "analysis/load_analysis.hpp"
#include "analysis/scenario.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env(0.4)};

  // Historical logs from the unicast era (paper: DITL 2017-04-12).
  const auto history = scenario.broot_load(0x20170412);
  std::printf("historical load: %s q/day over %zu querying blocks\n\n",
              util::si_count(history.total_daily_queries()).c_str(),
              history.blocks().size());

  // 1. Measure the planned two-site deployment on a test prefix.
  const auto routes_ptr = scenario.route(scenario.broot());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 77;
  const auto map = scenario.engine().run(routes, {probe, 0}).map;
  std::printf("test-prefix scan mapped %s blocks (%s to LAX)\n\n",
              util::with_commas(map.mapped_blocks()).c_str(),
              util::percent(map.fraction_to(0)).c_str());

  // 2. Predict per-site daily load, hourly peaks included.
  const auto split = analysis::predict_load(history, map, 2);
  const auto hours = analysis::hourly_load_by_site(scenario.topo(), history,
                                                   map, 2);
  util::Table table{{"site", "predicted q/day", "share", "peak hour q/s"},
                    {util::Align::kLeft}};
  const char* codes[] = {"LAX", "MIA"};
  for (std::size_t s = 0; s < 2; ++s) {
    double peak = 0;
    for (int h = 0; h < 24; ++h) peak = std::max(peak, hours[h][s]);
    table.add_row({codes[s], util::si_count(split.site_queries[s]),
                   util::percent(split.fraction_to(
                       static_cast<anycast::SiteId>(s))),
                   util::si_count(peak)});
  }
  double unknown_peak = 0;
  for (int h = 0; h < 24; ++h) unknown_peak = std::max(unknown_peak, hours[h][2]);
  table.add_row({"(unmapped)", util::si_count(split.unknown_queries), "-",
                 util::si_count(unknown_peak)});
  std::printf("%s\n", table.to_string().c_str());

  // 3. Deploy "for real" and compare with actual traffic.
  const auto actual = analysis::actual_load(
      history, routes, scenario.internet().flips(), 0);
  std::printf("prediction vs actual (LAX share): %s vs %s (error %s)\n",
              util::percent(split.fraction_to(0)).c_str(),
              util::percent(actual.fraction_to(0)).c_str(),
              util::percent(std::abs(split.fraction_to(0) -
                                     actual.fraction_to(0)))
                  .c_str());
  std::printf(
      "\nnote: the unmapped %s of traffic is assumed to split like the\n"
      "mapped traffic (paper §5.4); provision headroom accordingly.\n",
      util::percent(split.unknown_queries /
                    (split.total(true)))
          .c_str());
  return 0;
}
