// Figure 4: measured DNS traffic over geography — (a) B-Root load by
// catchment site as inferred from Verfploeter, with the unmappable
// (UNK) traffic concentrated in ICMP-dark Asia; (b) the Europe-dominated
// load of the .nl ccTLD, which makes load calibration essential for
// regional services.
#include "analysis/geomaps.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env()};
  bench::banner("Figure 4", "geographic load: B-Root (by site) and .nl",
                scenario);

  const auto routes_ptr = scenario.route(scenario.broot(), analysis::kAprilEpoch);
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 412;
  const auto map = scenario.engine().run(routes, {probe, 0}).map;
  const auto broot_load = scenario.broot_load(0x20170412);  // LB-4-12
  const auto nl_load = scenario.nl_load();                  // LN-4-12

  const auto broot_bins =
      analysis::bin_load(scenario.topo(), broot_load, map, 2);
  const auto nl_bins = analysis::bin_load_plain(scenario.topo(), nl_load);

  std::printf("--- (a) B-Root load by inferred site (q/s) ---\n%s\n",
              analysis::render_map_summary(broot_bins, {"LAX", "MIA", "UNK"})
                  .c_str());
  std::printf("--- (b) .nl load (q/s, no site attribution) ---\n%s\n",
              analysis::render_map_summary(nl_bins, {"queries"}).c_str());

  std::printf("shape checks (paper: Figure 4):\n");
  // (a) Unmappable load concentrates in Korea/Japan/Asia.
  double unk_asia = 0, unk_total = 0;
  for (const auto& [continent, weights] : broot_bins.by_continent()) {
    unk_total += weights[2];
    if (continent == geo::Continent::kAsia) unk_asia += weights[2];
  }
  bench::shape("unmappable (UNK) load concentrates in Asia",
               "mostly Korea/Japan", util::percent(unk_asia / unk_total),
               unk_asia / unk_total > 0.5);
  // Load is more concentrated than block counts (resolver hotspots):
  // compare the share of the top-10 bins under load vs block weighting.
  const auto block_bins = analysis::bin_catchment(scenario.topo(), map, 2);
  auto top10_share = [](const geo::GeoBinner& binner) {
    const auto rows = binner.rows();
    double top = 0, total = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      total += rows[i].total;
      if (i < 10) top += rows[i].total;
    }
    return total > 0 ? top / total : 0.0;
  };
  bench::shape("load concentrates in fewer hotspots than blocks",
               "fewer hotspots",
               util::percent(top10_share(broot_bins)) + " vs " +
                   util::percent(top10_share(block_bins)) + " in top-10 bins",
               top10_share(broot_bins) > top10_share(block_bins));
  // (b) .nl: majority of traffic from Europe; B-Root: global.
  double nl_europe = 0, nl_total = 0, broot_europe = 0, broot_total = 0;
  for (const auto& [continent, weights] : nl_bins.by_continent()) {
    for (double w : weights) nl_total += w;
    if (continent == geo::Continent::kEurope)
      for (double w : weights) nl_europe += w;
  }
  for (const auto& [continent, weights] : broot_bins.by_continent()) {
    for (double w : weights) broot_total += w;
    if (continent == geo::Continent::kEurope)
      for (double w : weights) broot_europe += w;
  }
  bench::shape(".nl load is Europe-dominated", ">50%",
               util::percent(nl_europe / nl_total),
               nl_europe / nl_total > 0.5);
  bench::shape("B-Root load tracks global users instead", "global",
               util::percent(broot_europe / broot_total) + " Europe",
               broot_europe / broot_total < 0.45);
  return 0;
}
