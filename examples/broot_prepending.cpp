// Traffic engineering study: how does AS-path prepending move B-Root's
// catchment, and what does that mean in *queries per second* at each site?
//
// Reproduces the workflow of paper §6.1: measure the catchment of each
// prepending configuration with Verfploeter on a test prefix, weight with
// historical load, and pick the configuration whose predicted split best
// matches a target (here: protecting MIA from overload by keeping it
// under a third of total load).
//
// Run:  ./broot_prepending          (VP_SCALE / VP_SEED respected)
#include <cstdio>

#include "analysis/load_analysis.hpp"
#include "analysis/scenario.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env(0.4)};
  std::printf("B-Root prepending study on a %zu-block Internet\n\n",
              scenario.topo().block_count());

  const auto load = scenario.broot_load(0x20170412);

  struct Option {
    const char* label;
    const char* site;
    int amount;
  };
  const Option options[] = {{"+1 LAX", "LAX", 1},
                            {"equal", "LAX", 0},
                            {"+1 MIA", "MIA", 1},
                            {"+2 MIA", "MIA", 2},
                            {"+3 MIA", "MIA", 3}};

  util::Table table{{"config", "blocks LAX", "load LAX", "load MIA",
                     "MIA share", "fits target"},
                    {util::Align::kLeft}};
  const char* best = nullptr;
  double best_mia = 0.0;
  for (const Option& option : options) {
    const auto deployment =
        scenario.broot().with_prepend(option.site, option.amount);
    const auto routes_ptr = scenario.route(deployment);
    const auto& routes = *routes_ptr;
    core::ProbeConfig probe;
    probe.measurement_id =
        static_cast<std::uint32_t>(100 + (&option - options));
    const auto map =
        scenario.engine()
            .run(routes,
                 {probe, static_cast<std::uint32_t>(&option - options)})
            .map;
    const auto split = analysis::predict_load(load, map, 2);
    const double mia_share = split.fraction_to(1);
    // Target: MIA carries some but no more than a third of the load.
    const bool fits = mia_share > 0.05 && mia_share < 0.33;
    if (fits && (best == nullptr || mia_share > best_mia)) {
      best = option.label;
      best_mia = mia_share;
    }
    table.add_row({option.label, util::percent(map.fraction_to(0)),
                   util::si_count(split.site_queries[0] / 86400.0) + " q/s",
                   util::si_count(split.site_queries[1] / 86400.0) + " q/s",
                   util::percent(mia_share), fits ? "yes" : "no"});
  }
  std::printf("%s\n", table.to_string().c_str());
  if (best != nullptr) {
    std::printf(
        "recommendation: announce \"%s\" — keeps MIA loaded but under "
        "1/3 of total (%s)\n",
        best, util::percent(best_mia).c_str());
  } else {
    std::printf("no configuration satisfies the target; consider BGP "
                "communities (§6.1)\n");
  }
  return 0;
}
