// Figure 3: catchments of the nine-site Tangled testbed from RIPE Atlas
// and Verfploeter. The story: with more sites the denser coverage matters
// more — only Verfploeter sees China at all, and per-region site mixes
// differ qualitatively between the two systems.
#include "analysis/geomaps.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env()};
  bench::banner("Figure 3", "Tangled catchments: Atlas vs Verfploeter",
                scenario);

  const auto& tangled = scenario.tangled();
  const auto routes_ptr = scenario.route(tangled);
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 301;
  const auto map = scenario.engine().run(routes, {probe, 0}).map;
  const auto campaign =
      scenario.atlas().measure(routes, scenario.internet().flips(), 0);

  std::vector<std::string> categories;
  for (const auto& site : tangled.sites) categories.push_back(site.code);
  categories.push_back("UNK");

  const auto atlas_bins = analysis::bin_atlas(
      scenario.atlas(), campaign, tangled.sites.size());
  const auto verf_bins =
      analysis::bin_catchment(scenario.topo(), map, tangled.sites.size());

  std::printf("--- (a) RIPE Atlas (VPs) ---\n%s\n",
              analysis::render_map_summary(atlas_bins, categories).c_str());
  std::printf("--- (b) Verfploeter (/24 blocks) ---\n%s\n",
              analysis::render_map_summary(verf_bins, categories).c_str());

  std::printf("per-site catchment sizes (Verfploeter):\n");
  const auto counts = map.per_site_counts(tangled.sites.size());
  util::Table table{{"site", "/24 blocks", "share"}, {util::Align::kLeft}};
  for (std::size_t s = 0; s < counts.size(); ++s) {
    table.add_row({tangled.sites[s].code, util::with_commas(counts[s]),
                   util::percent(static_cast<double>(counts[s]) /
                                 static_cast<double>(map.mapped_blocks()))});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("shape checks (paper: Figure 3, STA/STV-2-01):\n");
  double atlas_total = 0, verf_total = 0, verf_china = 0, atlas_china = 0;
  for (const auto& row : atlas_bins.rows()) {
    atlas_total += row.total;
    const auto c = row.bin.center();
    if (c.lat > 18 && c.lat < 46 && c.lon > 95 && c.lon < 125)
      atlas_china += row.total;
  }
  for (const auto& row : verf_bins.rows()) {
    verf_total += row.total;
    const auto c = row.bin.center();
    if (c.lat > 18 && c.lat < 46 && c.lon > 95 && c.lon < 125)
      verf_china += row.total;
  }
  bench::shape("only Verfploeter provides coverage of China", ">0 vs ~0",
               util::si_count(verf_china) + " vs " +
                   util::si_count(atlas_china),
               verf_china > 100 && atlas_china < 5);
  std::size_t active_sites = 0;
  for (std::size_t s = 0; s < counts.size(); ++s)
    active_sites += counts[s] > 0;
  bench::shape("all visible sites attract catchments", "8 sites",
               std::to_string(active_sites) + " sites", active_sites >= 7);
  const auto gru = tangled.site_by_code("GRU");
  bench::shape("the shadowed Sao Paulo site attracts nothing", "hidden",
               util::with_commas(counts[static_cast<std::size_t>(*gru)]),
               counts[static_cast<std::size_t>(*gru)] == 0);
  const auto hnd = tangled.site_by_code("HND");
  const double hnd_share =
      static_cast<double>(counts[static_cast<std::size_t>(*hnd)]) /
      static_cast<double>(map.mapped_blocks());
  bench::shape("the weakly-connected Tokyo site stays small", "small HND",
               util::percent(hnd_share), hnd_share < 0.25);
  return 0;
}
