// Extension (paper §7, future work): use the RTTs embedded in Verfploeter
// replies to suggest where a new anycast site would help, then *validate*
// the suggestion by actually deploying the recommended site in the
// simulator and re-measuring latency — the closed loop the paper could
// only sketch.
#include "analysis/latency.hpp"
#include "analysis/load_analysis.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"
#include "topology/generator.hpp"

using namespace vp;

namespace {

/// The transit AS best positioned to host a site at `center` (nearest PoP).
topology::AsNumber upstream_near(const topology::Topology& topo,
                                 geo::LatLon location) {
  topology::AsNumber best{0};
  double best_km = 1e18;
  for (const auto& node : topo.ases()) {
    if (node.tier != topology::AsTier::kTransit) continue;
    for (const auto& pop : node.pops) {
      const double km = geo::distance_km(pop.location, location);
      if (km < best_km) {
        best_km = km;
        best = node.asn;
      }
    }
  }
  return best;
}

}  // namespace

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env(0.5)};
  bench::banner("Extension (§7)",
                "RTT-driven site placement for B-Root, validated", scenario);

  const auto load = scenario.broot_load(0x20170515);

  // 1. Measure the current two-site deployment, with RTTs.
  const auto routes_ptr = scenario.route(scenario.broot());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 11000;
  const auto before = scenario.engine().run(routes, {probe, 0});
  const auto report_before = analysis::analyze_latency(
      scenario.topo(), before, load, scenario.broot());

  std::printf("current deployment latency:\n");
  util::Table table{{"site", "blocks", "p25 ms", "median ms", "p95 ms"},
                    {util::Align::kLeft}};
  for (const auto& site : report_before.per_site) {
    table.add_row({site.code, util::with_commas(site.blocks),
                   util::fixed(site.rtt_ms.p25, 1),
                   util::fixed(site.rtt_ms.p50, 1),
                   util::fixed(site.rtt_ms.p95, 1)});
  }
  std::printf("%sload-weighted mean RTT: %.1f ms\n\n",
              table.to_string().c_str(),
              report_before.load_weighted_mean_ms);

  // 2. Recommend new sites from the measured RTTs.
  const auto candidates = analysis::recommend_sites(
      scenario.topo(), before, load, scenario.broot(), 5);
  std::printf("recommended new sites (greedy, load-weighted):\n");
  util::Table recs{{"#", "location", "blocks won", "mean saving"},
                   {util::Align::kRight, util::Align::kLeft}};
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    recs.add_row({std::to_string(i + 1), candidates[i].center_name,
                  util::with_commas(candidates[i].blocks_won),
                  util::fixed(candidates[i].mean_rtt_saving_ms, 1) + " ms"});
  }
  std::printf("%s\n", recs.to_string().c_str());
  if (candidates.empty()) {
    std::printf("no beneficial candidate found\n");
    return 0;
  }

  // 3. Validate: deploy the top recommendation and re-measure.
  const auto& pick = candidates.front();
  const geo::LatLon location = geo::world_centers()[pick.center_id].location;
  anycast::Deployment expanded = scenario.broot();
  expanded.sites.push_back(anycast::AnycastSite{
      "NEW", upstream_near(scenario.topo(), location), location});
  const auto new_routes_ptr = scenario.route(expanded);
  const auto& new_routes = *new_routes_ptr;
  probe.measurement_id = 11001;
  const auto after = scenario.engine().run(new_routes, {probe, 1});
  const auto report_after =
      analysis::analyze_latency(scenario.topo(), after, load, expanded);

  const auto counts = after.map.per_site_counts(expanded.sites.size());
  std::printf("after adding %s (upstream AS%u):\n", pick.center_name.c_str(),
              expanded.sites.back().upstream.value);
  std::printf("  new site catchment : %s blocks (%s)\n",
              util::with_commas(counts[2]).c_str(),
              util::percent(static_cast<double>(counts[2]) /
                            static_cast<double>(after.map.mapped_blocks()))
                  .c_str());
  std::printf("  load-weighted RTT  : %.1f ms -> %.1f ms\n\n",
              report_before.load_weighted_mean_ms,
              report_after.load_weighted_mean_ms);

  std::printf("shape checks:\n");
  bench::shape("recommender finds candidates with positive savings", ">0",
               util::with_commas(candidates.size()) + " candidates",
               !candidates.empty() && pick.mean_rtt_saving_ms > 0);
  bench::shape("the new site attracts a real catchment", ">0 blocks",
               util::with_commas(counts[2]), counts[2] > 0);
  bench::shape("measured latency improves after deployment", "lower",
               util::fixed(report_before.load_weighted_mean_ms -
                               report_after.load_weighted_mean_ms,
                           1) +
                   " ms saved",
               report_after.load_weighted_mean_ms <
                   report_before.load_weighted_mean_ms);
  return 0;
}
