// Figure 7: number of sites seen from an AS vs how many prefixes that AS
// announces (median and 5/25/75/95 percentiles) — ASes that announce more
// prefixes are split across more catchments. Also reports §6.2's headline
// number: the fraction of ASes served by more than one site.
#include "analysis/divisions.hpp"
#include "analysis/stability.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env()};
  bench::banner("Figure 7", "announced prefixes vs sites seen per AS",
                scenario);

  const auto routes_ptr = scenario.route(scenario.tangled());
  const auto& routes = *routes_ptr;
  // Run a short campaign first to identify unstable VPs; the paper
  // removes them before counting divisions ("without removing these VPs
  // we observe approximately 2% more divisions").
  core::ProbeConfig probe;
  probe.order_seed = 77;
  analysis::StabilityAccumulator accumulator{scenario.topo()};
  core::CatchmentMap last_map;
  for (std::uint32_t round = 0; round < 8; ++round) {
    probe.measurement_id = 7000 + round;
    auto result = scenario.engine().run(
        routes, {probe, round, util::SimTime::from_minutes(15.0 * round)});
    accumulator.add_round(result.map);
    last_map = std::move(result.map);
  }
  const auto stability = accumulator.finish();

  const auto report = analysis::analyze_divisions(
      scenario.topo(), last_map, stability.unstable_blocks);
  const auto unfiltered =
      analysis::analyze_divisions(scenario.topo(), last_map);

  util::Table table{{"sites seen", "ASes", "prefixes p5", "p25", "median",
                     "p75", "p95"}};
  for (const auto& bucket : report.buckets) {
    table.add_row({std::to_string(bucket.sites_seen),
                   util::with_commas(bucket.as_count),
                   util::fixed(bucket.announced_prefixes.p5, 0),
                   util::fixed(bucket.announced_prefixes.p25, 0),
                   util::fixed(bucket.announced_prefixes.p50, 0),
                   util::fixed(bucket.announced_prefixes.p75, 0),
                   util::fixed(bucket.announced_prefixes.p95, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("ASes observed: %llu; served by >1 site: %llu (%s)\n\n",
              static_cast<unsigned long long>(report.ases_observed),
              static_cast<unsigned long long>(report.ases_multi_site),
              util::percent(report.multi_site_fraction()).c_str());

  std::printf("shape checks (paper: Figure 7 + §6.2, STV-3-23):\n");
  bench::shape("a noticeable fraction of ASes is split across sites",
               "12.7%", util::percent(report.multi_site_fraction()),
               report.multi_site_fraction() > 0.02 &&
                   report.multi_site_fraction() < 0.35);
  double single = 0;
  double multi_sum = 0, multi_n = 0;
  for (const auto& bucket : report.buckets) {
    if (bucket.sites_seen == 1) single = bucket.mean_prefixes;
    if (bucket.sites_seen >= 2) {
      multi_sum += bucket.mean_prefixes * static_cast<double>(bucket.as_count);
      multi_n += static_cast<double>(bucket.as_count);
    }
  }
  const double multi = multi_n > 0 ? multi_sum / multi_n : 0.0;
  bench::shape("multi-site ASes announce more prefixes (mean)",
               "rising trend",
               util::fixed(single, 1) + " -> " + util::fixed(multi, 1),
               multi > single);
  bench::shape("removing unstable VPs lowers the division count", "-2%",
               util::with_commas(unfiltered.ases_multi_site) + " -> " +
                   util::with_commas(report.ases_multi_site),
               report.ases_multi_site <= unfiltered.ases_multi_site);
  return 0;
}
