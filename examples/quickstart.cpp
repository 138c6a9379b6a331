// Quickstart: map the catchments of a two-site anycast service.
//
// Builds a small simulated Internet, deploys B-Root's two-site anycast
// (Table 3), runs one Verfploeter round, and prints the catchment split,
// the cleaning statistics, and how the measured map compares with the
// simulator's ground truth (something the real system cannot check!).
//
// Run:  ./quickstart            (small Internet, < a few seconds)
//       VP_SCALE=2 ./quickstart (twice the default size)
#include <cstdio>

#include "analysis/scenario.hpp"
#include "util/format.hpp"

using namespace vp;

int main() {
  // Quickstart stays snappy: scale 0.25 unless VP_SCALE says otherwise.
  const analysis::ScenarioConfig config =
      analysis::ScenarioConfig::from_env(0.25);
  std::printf("building a simulated Internet (scale %.2f)...\n",
              config.scale);
  analysis::Scenario scenario{config};
  const auto& topo = scenario.topo();
  std::printf("  %zu ASes, %zu announced prefixes, %zu /24 blocks\n",
              topo.as_count(), topo.announced_prefixes().size(),
              topo.block_count());

  // 1. Compute BGP routes for the B-Root deployment (memoized: a second
  //    route() of the same deployment returns the same shared table).
  const auto& broot = scenario.broot();
  const auto routes_ptr = scenario.route(broot);
  const bgp::RoutingTable& routes = *routes_ptr;

  // 2. Run one Verfploeter measurement round. A RoundSpec describes the
  //    round; spec.threads shards the probe phase without changing the
  //    result (try spec.threads = 0 for one worker per hardware thread).
  core::RoundSpec spec;
  spec.probe.measurement_id = 1001;
  spec.round = 0;
  const core::RoundResult round = scenario.engine().run(routes, spec);
  const core::CatchmentMap& map = round.map;

  std::printf("\nVerfploeter round %u:\n", map.measurement_id);
  std::printf("  probes sent      : %s\n",
              util::with_commas(map.probes_sent).c_str());
  std::printf("  blocks probed    : %s\n",
              util::with_commas(map.blocks_probed).c_str());
  std::printf("  blocks mapped    : %s (%s of probed)\n",
              util::with_commas(map.mapped_blocks()).c_str(),
              util::percent(static_cast<double>(map.mapped_blocks()) /
                            static_cast<double>(map.blocks_probed))
                  .c_str());
  const auto& cleaning = map.cleaning;
  std::printf(
      "  cleaning         : %llu raw, %llu dup, %llu unsolicited, "
      "%llu late\n",
      static_cast<unsigned long long>(cleaning.raw_replies),
      static_cast<unsigned long long>(cleaning.duplicates),
      static_cast<unsigned long long>(cleaning.unsolicited),
      static_cast<unsigned long long>(cleaning.late));

  // 3. Catchment split.
  std::printf("\ncatchment split:\n");
  const auto counts = map.per_site_counts(broot.sites.size());
  for (std::size_t s = 0; s < broot.sites.size(); ++s) {
    std::printf("  %-4s %9s blocks (%s)\n", broot.sites[s].code.c_str(),
                util::with_commas(counts[s]).c_str(),
                util::percent(static_cast<double>(counts[s]) /
                              static_cast<double>(map.mapped_blocks()))
                    .c_str());
  }

  // 4. Validate against ground truth (simulation-only superpower).
  std::uint64_t correct = 0;
  for (const auto& [block, site] : map.entries()) {
    if (site == scenario.internet().ground_truth_site(routes, block, 0))
      ++correct;
  }
  std::printf("\nmeasured vs ground truth: %s of mapped blocks correct\n",
              util::percent(static_cast<double>(correct) /
                            static_cast<double>(map.mapped_blocks()))
                  .c_str());
  return 0;
}
