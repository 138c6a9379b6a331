// Figure 2: geographic coverage of B-Root as seen by (a) RIPE Atlas and
// (b) Verfploeter, in two-degree geographic bins colored by site. The
// textual rendering prints per-continent totals and the heaviest bins;
// the shape checks encode the figure's story: Verfploeter is ~3 orders
// of magnitude denser, covers China where Atlas is blind, and shows the
// AMPATH effect in eastern South America.
#include "analysis/geomaps.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env()};
  bench::banner("Figure 2", "geographic coverage of B-Root: Atlas vs Verfploeter",
                scenario);

  const auto routes_ptr = scenario.route(scenario.broot(), analysis::kMayEpoch);
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 215;
  const auto map = scenario.engine().run(routes, {probe, 0}).map;
  const auto campaign =
      scenario.atlas().measure(routes, scenario.internet().flips(), 0);

  const std::vector<std::string> categories{"LAX", "MIA", "UNK"};
  const auto atlas_bins =
      analysis::bin_atlas(scenario.atlas(), campaign, 2);
  const auto verf_bins = analysis::bin_catchment(scenario.topo(), map, 2);

  std::printf("--- (a) RIPE Atlas coverage (VPs per bin) ---\n%s\n",
              analysis::render_map_summary(atlas_bins, categories).c_str());
  std::printf("--- (b) Verfploeter coverage (/24 blocks per bin) ---\n%s\n",
              analysis::render_map_summary(verf_bins, categories).c_str());

  // Region tallies for the shape checks.
  auto china_total = [&](const geo::GeoBinner& binner) {
    double total = 0;
    for (const auto& row : binner.rows()) {
      const auto c = row.bin.center();
      if (c.lat > 18 && c.lat < 46 && c.lon > 95 && c.lon < 125)
        total += row.total;
    }
    return total;
  };
  // Eastern South America (Brazil/Argentina) MIA share vs western (Peru/
  // Chile) — the AMPATH story of §5.1.
  auto region_mia_share = [&](double lat_lo, double lat_hi, double lon_lo,
                              double lon_hi) {
    double mia = 0, total = 0;
    for (const auto& row : verf_bins.rows()) {
      const auto c = row.bin.center();
      if (c.lat < lat_lo || c.lat > lat_hi || c.lon < lon_lo ||
          c.lon > lon_hi)
        continue;
      mia += row.category_weights[1];
      total += row.total;
    }
    return total > 0 ? mia / total : 0.0;
  };

  double atlas_total = 0, verf_total = 0;
  for (const auto& row : atlas_bins.rows()) atlas_total += row.total;
  for (const auto& row : verf_bins.rows()) verf_total += row.total;

  std::printf("shape checks (paper: Figure 2):\n");
  bench::shape("Verfploeter is orders of magnitude denser", "1000x scale",
               util::fixed(verf_total / std::max(atlas_total, 1.0), 0) + "x",
               verf_total > 50 * atlas_total);
  bench::shape("Atlas is blind in China; Verfploeter is not", ">0 vs ~0",
               util::si_count(china_total(verf_bins)) + " vs " +
                   util::si_count(china_total(atlas_bins)),
               china_total(verf_bins) > 100 && china_total(atlas_bins) < 5);
  const double east_sa = region_mia_share(-35, 0, -55, -34);   // BR/AR
  const double west_sa = region_mia_share(-35, 0, -82, -66);   // PE/CL
  bench::shape("MIA (AMPATH) strong in eastern South America",
               "wide MIA use in BR", util::percent(east_sa), east_sa > 0.5);
  bench::shape("...but weaker on the SA west coast", "less MIA in PE/CL",
               util::percent(west_sa) + " vs " + util::percent(east_sa),
               west_sa < east_sa);
  // Atlas: Europe-heavy; Verfploeter tracks the Internet.
  double atlas_europe = 0, verf_europe = 0;
  for (const auto& [continent, weights] : atlas_bins.by_continent())
    if (continent == geo::Continent::kEurope)
      for (double w : weights) atlas_europe += w;
  for (const auto& [continent, weights] : verf_bins.by_continent())
    if (continent == geo::Continent::kEurope)
      for (double w : weights) verf_europe += w;
  bench::shape("Atlas is Europe-skewed; Verfploeter is not", "~50% vs ~20%",
               util::percent(atlas_europe / atlas_total) + " vs " +
                   util::percent(verf_europe / verf_total),
               atlas_europe / atlas_total >
                   1.5 * (verf_europe / verf_total));
  return 0;
}
