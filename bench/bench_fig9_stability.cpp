// Figure 9: stability of Tangled's catchments over 24 hours — 96 rounds
// at 15-minute intervals, each VP classified as stable / flipped /
// to-non-responsive / from-non-responsive against the previous round.
#include "analysis/stability.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  // The 96-round campaign is the most expensive bench; default to a
  // half-size Internet so the full sweep stays under a minute.
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env(0.5)};
  bench::banner("Figure 9", "Tangled catchment stability over 24h (96 rounds)",
                scenario);

  const auto routes_ptr = scenario.route(scenario.tangled());
  const auto& routes = *routes_ptr;
  analysis::StabilityAccumulator accumulator{scenario.topo()};
  core::ProbeConfig probe;
  probe.order_seed = 97;
  for (std::uint32_t round = 0; round < 96; ++round) {
    probe.measurement_id = 3000 + round;
    const auto result = scenario.engine().run(
        routes, {probe, round, util::SimTime::from_minutes(15.0 * round)});
    accumulator.add_round(result.map);
    if (round % 24 == 23)
      std::printf("  ... %u/96 rounds (t=%s)\n", round + 1,
                  util::format_hms(result.started).c_str());
  }
  const auto report = accumulator.finish();

  std::printf("\nper-transition series (every 8th shown; 1 point = 15 min):\n");
  util::Table series{{"t", "stable", "to_NR", "from_NR", "flipped"}};
  for (std::size_t i = 0; i < report.transitions.size(); i += 8) {
    const auto& t = report.transitions[i];
    series.add_row({util::format_hms(util::SimTime::from_minutes(
                        15.0 * static_cast<double>(i + 1))),
                    util::with_commas(t.stable), util::with_commas(t.to_nr),
                    util::with_commas(t.from_nr),
                    util::with_commas(t.flipped)});
  }
  std::printf("%s\n", series.to_string().c_str());

  const double stable = report.median_stable();
  const double flipped = report.median_flipped();
  const double to_nr = report.median_to_nr();
  const double from_nr = report.median_from_nr();
  const double responding = stable + flipped + to_nr;

  std::printf("medians: stable=%s to_NR=%s from_NR=%s flipped=%s\n\n",
              util::si_count(stable).c_str(), util::si_count(to_nr).c_str(),
              util::si_count(from_nr).c_str(),
              util::si_count(flipped).c_str());

  std::printf("shape checks (paper: Figure 9, STV-3-23):\n");
  bench::shape("catchments are overwhelmingly stable", "~95%",
               util::percent(stable / responding),
               stable / responding > 0.90);
  bench::shape("responsiveness churn per round", "~2.4%",
               util::percent(to_nr / responding),
               to_nr / responding > 0.01 && to_nr / responding < 0.06);
  bench::shape("flips are rare", "~0.1%", util::percent(flipped / responding),
               flipped / responding > 0.0001 &&
                   flipped / responding < 0.01);
  bench::shape("churn is two-sided (from_NR ~ to_NR)", "~89k each",
               util::si_count(from_nr) + " vs " + util::si_count(to_nr),
               std::abs(from_nr - to_nr) < 0.5 * to_nr);
  return 0;
}
