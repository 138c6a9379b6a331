// Stability monitoring on a nine-site testbed (paper §6.3): run a
// multi-hour Verfploeter campaign against Tangled, classify every vantage
// point per round, and identify the networks responsible for catchment
// flapping — the operational workflow for spotting ASes whose users would
// suffer broken TCP connections.
//
// Run:  ./tangled_stability [hours]     (default 6 hours = 24 rounds)
#include <cstdio>
#include <cstdlib>

#include "analysis/scenario.hpp"
#include "analysis/stability.hpp"
#include "core/campaign.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace vp;

int main(int argc, char** argv) {
  const double hours = argc > 1 ? std::atof(argv[1]) : 6.0;
  const auto rounds = static_cast<std::uint32_t>(hours * 4);  // 15-min grid

  analysis::Scenario scenario{analysis::ScenarioConfig::from_env(0.4)};
  std::printf("Tangled stability: %u rounds over %.1f hours, %zu blocks\n\n",
              rounds, hours, scenario.topo().block_count());

  const auto routes_ptr = scenario.route(scenario.tangled());
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 100;
  probe.order_seed = 7;
  // The Campaign builder owns the per-round spacing and seeding; each
  // round gets a fresh measurement id, probe order, and start time.
  const auto results = core::Campaign{scenario.engine(), routes}
                           .probe(probe)
                           .rounds(rounds)
                           .interval(util::SimTime::from_minutes(15.0))
                           .run();
  analysis::StabilityAccumulator accumulator{scenario.topo()};
  for (const core::RoundResult& result : results)
    accumulator.add_round(result.map);
  const auto report = accumulator.finish();

  std::printf("median per-round classification:\n");
  std::printf("  stable   %s\n",
              util::si_count(report.median_stable()).c_str());
  std::printf("  to-NR    %s\n", util::si_count(report.median_to_nr()).c_str());
  std::printf("  from-NR  %s\n",
              util::si_count(report.median_from_nr()).c_str());
  std::printf("  flipped  %s\n\n",
              util::si_count(report.median_flipped()).c_str());

  std::printf("networks to talk to (most flips first):\n");
  util::Table table{{"AS", "name", "flipping /24s", "flips"},
                    {util::Align::kRight, util::Align::kLeft}};
  for (std::size_t i = 0; i < report.by_as.size() && i < 8; ++i) {
    const auto& as = report.by_as[i];
    table.add_row({std::to_string(as.asn), as.name,
                   util::with_commas(as.flipping_blocks),
                   util::with_commas(as.flips)});
  }
  std::printf("%s\n", table.to_string().c_str());

  const double stable = report.median_stable();
  const double flipped = report.median_flipped();
  std::printf("verdict: anycast is %s for %s of VPs per round\n",
              flipped / stable < 0.01 ? "stable" : "UNSTABLE",
              util::percent(stable / (stable + flipped)).c_str());
  return 0;
}
