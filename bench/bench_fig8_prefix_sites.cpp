// Figure 8: per announced-prefix length, the distribution of how many
// Tangled sites the prefix's blocks are served by. Long prefixes are
// mostly single-site; large (short) prefixes split across several.
// Also reports the §6.2 address-space share needing multiple VPs (~38%).
#include "analysis/divisions.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env()};
  bench::banner("Figure 8", "sites seen per announced prefix, by length",
                scenario);

  const auto routes_ptr = scenario.route(scenario.tangled());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 8000;
  const auto map = scenario.engine().run(routes, {probe, 0}).map;
  const auto rows = analysis::analyze_prefix_sites(scenario.topo(), map);

  util::Table table{{"len", "prefixes", "1 site", "2", "3", "4", "5", "6+",
                     "mean sites"},
                    {util::Align::kLeft}};
  for (const auto& row : rows) {
    table.add_row({"/" + std::to_string(row.prefix_length),
                   util::with_commas(row.prefix_count),
                   util::percent(row.fraction_by_sites[0]),
                   util::percent(row.fraction_by_sites[1]),
                   util::percent(row.fraction_by_sites[2]),
                   util::percent(row.fraction_by_sites[3]),
                   util::percent(row.fraction_by_sites[4]),
                   util::percent(row.fraction_by_sites[5]),
                   util::fixed(row.mean_sites, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  const auto share = analysis::multi_vp_address_share(scenario.topo(), map);
  std::printf(
      "address space in multi-site prefixes: %s of %s observed blocks "
      "(%s)\n\n",
      util::with_commas(share.multi_site_blocks).c_str(),
      util::with_commas(share.observed_blocks).c_str(),
      util::percent(share.fraction()).c_str());

  std::printf("shape checks (paper: Figure 8 + §6.2):\n");
  // Long prefixes (/23,/24) overwhelmingly single-site.
  double long_single = 0;
  int long_n = 0;
  double short_mean = 0;
  int short_n = 0;
  std::uint8_t shortest = 32;
  for (const auto& row : rows) shortest = std::min(shortest, row.prefix_length);
  for (const auto& row : rows) {
    if (row.prefix_length >= 23) {
      long_single += row.fraction_by_sites[0];
      ++long_n;
    }
    if (row.prefix_length <= shortest + 3 && row.prefix_count >= 2) {
      short_mean += 1.0 - row.fraction_by_sites[0];
      ++short_n;
    }
  }
  bench::shape("long prefixes (/23+) are mostly single-site", "~80%",
               util::percent(long_single / std::max(long_n, 1)),
               long_n > 0 && long_single / long_n > 0.7);
  bench::shape("the largest prefixes usually split", "75% of /10s",
               util::percent(short_mean / std::max(short_n, 1)) +
                   " multi-site",
               short_n > 0 && short_mean / short_n > 0.5);
  bench::shape("multi-site prefixes hold a big share of address space",
               "38%", util::percent(share.fraction()),
               share.fraction() > 0.15 && share.fraction() < 0.7);
  return 0;
}
