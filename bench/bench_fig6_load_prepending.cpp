// Figure 6: predicted hourly load at each B-Root site for five prepending
// configurations — catchments from Verfploeter, per-hour volumes from the
// day-long load dataset (LB-4-12). The "UNKNOWN" series is traffic from
// blocks Verfploeter could not map.
#include "analysis/load_analysis.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env()};
  bench::banner("Figure 6",
                "predicted hourly load per site under prepending", scenario);

  const auto load = scenario.broot_load(0x20170412);  // LB-4-12 (DITL)

  struct Config {
    const char* label;
    const char* site;
    int amount;
  };
  const Config configs[] = {{"lax+1", "LAX", 1},
                            {"equal", "LAX", 0},
                            {"mia+1", "MIA", 1},
                            {"mia+2", "MIA", 2},
                            {"mia+3", "MIA", 3}};

  bool lax1_mia_dominates = false;
  bool equal_lax_dominates = false;
  double unknown_share_sum = 0;
  for (const Config& config : configs) {
    const auto deployment =
        scenario.broot().with_prepend(config.site, config.amount);
    const auto routes_ptr = scenario.route(deployment, analysis::kAprilEpoch);
    const auto& routes = *routes_ptr;
    core::ProbeConfig probe;
    probe.measurement_id = static_cast<std::uint32_t>(
        6000 + (&config - configs));
    const auto map =
        scenario.engine()
            .run(routes,
                 {probe, static_cast<std::uint32_t>(&config - configs)})
            .map;
    const auto hours =
        analysis::hourly_load_by_site(scenario.topo(), load, map, 2);

    std::printf("-- %s (avg q/s per 1-hour bin) --\n", config.label);
    util::Table table{{"hour", "LAX", "MIA", "UNKNOWN"}};
    double lax_total = 0, mia_total = 0, unknown_total = 0;
    for (int h = 0; h < 24; h += 4) {
      table.add_row({util::fixed(h, 0), util::si_count(hours[h][0]),
                     util::si_count(hours[h][1]),
                     util::si_count(hours[h][2])});
    }
    for (int h = 0; h < 24; ++h) {
      lax_total += hours[h][0];
      mia_total += hours[h][1];
      unknown_total += hours[h][2];
    }
    std::printf("%s", table.to_string().c_str());
    std::printf("day totals: LAX %s  MIA %s  UNKNOWN %s\n\n",
                util::si_count(lax_total).c_str(),
                util::si_count(mia_total).c_str(),
                util::si_count(unknown_total).c_str());

    if (std::string(config.label) == "lax+1")
      lax1_mia_dominates = mia_total > lax_total;
    if (std::string(config.label) == "equal")
      equal_lax_dominates = lax_total > mia_total;
    unknown_share_sum +=
        unknown_total / (lax_total + mia_total + unknown_total);
  }

  std::printf("shape checks (paper: Figure 6, SBV-4-21 x LB-4-12):\n");
  bench::shape("lax+1: nearly all traffic goes to MIA", "MIA >> LAX",
               lax1_mia_dominates ? "MIA > LAX" : "LAX >= MIA",
               lax1_mia_dominates);
  bench::shape("equal: most load shifts to LAX", "LAX > MIA",
               equal_lax_dominates ? "LAX > MIA" : "MIA >= LAX",
               equal_lax_dominates);
  const double unknown_share = unknown_share_sum / 5.0;
  bench::shape("a small UNKNOWN share persists in every config", "~17%",
               util::percent(unknown_share),
               unknown_share > 0.05 && unknown_share < 0.35);
  return 0;
}
