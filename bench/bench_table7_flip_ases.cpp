// Table 7: top ASes involved in catchment flips over the 24h Tangled
// campaign. The paper finds flips heavily concentrated: 51% in Chinanet,
// 63% in the top five ASes.
#include "analysis/stability.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env(0.5)};
  bench::banner("Table 7", "top ASes involved in site flips (24h campaign)",
                scenario);

  const auto routes_ptr = scenario.route(scenario.tangled());
  const auto& routes = *routes_ptr;
  analysis::StabilityAccumulator accumulator{scenario.topo()};
  core::ProbeConfig probe;
  probe.order_seed = 97;
  for (std::uint32_t round = 0; round < 96; ++round) {
    probe.measurement_id = 4000 + round;
    accumulator.add_round(
        scenario.engine()
            .run(routes,
                 {probe, round, util::SimTime::from_minutes(15.0 * round)})
            .map);
  }
  const auto report = accumulator.finish();

  util::Table table{{"#", "AS", "name", "IPs (/24s)", "flips", "frac"},
                    {util::Align::kRight, util::Align::kRight,
                     util::Align::kLeft}};
  std::uint64_t top5 = 0;
  std::uint64_t shown_blocks = 0, shown_flips = 0;
  for (std::size_t i = 0; i < report.by_as.size() && i < 5; ++i) {
    const auto& as = report.by_as[i];
    top5 += as.flips;
    shown_blocks += as.flipping_blocks;
    shown_flips += as.flips;
    table.add_row(
        {std::to_string(i + 1), std::to_string(as.asn), as.name,
         util::with_commas(as.flipping_blocks), util::with_commas(as.flips),
         util::fixed(static_cast<double>(as.flips) /
                         static_cast<double>(report.total_flips),
                     2)});
  }
  std::uint64_t other_blocks = 0;
  for (std::size_t i = 5; i < report.by_as.size(); ++i)
    other_blocks += report.by_as[i].flipping_blocks;
  table.add_row({"", "", "Other", util::with_commas(other_blocks),
                 util::with_commas(report.total_flips - shown_flips),
                 util::fixed(static_cast<double>(report.total_flips -
                                                 shown_flips) /
                                 static_cast<double>(report.total_flips),
                             2)});
  table.add_separator();
  table.add_row({"", "", "Total",
                 util::with_commas(shown_blocks + other_blocks),
                 util::with_commas(report.total_flips), "1.00"});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("flipping ASes: %llu\n\n",
              static_cast<unsigned long long>(report.flipping_ases));
  std::printf("shape checks (paper: Table 7, STV-3-23):\n");
  const double top1 = report.by_as.empty()
                          ? 0.0
                          : static_cast<double>(report.by_as[0].flips) /
                                static_cast<double>(report.total_flips);
  bench::shape("one load-balanced giant dominates flips", "51% (Chinanet)",
               util::percent(top1) + " (" +
                   (report.by_as.empty() ? "-" : report.by_as[0].name) + ")",
               top1 > 0.3);
  const double top5_share = static_cast<double>(top5) /
                            static_cast<double>(report.total_flips);
  bench::shape("top-5 ASes hold most flips", "63%", util::percent(top5_share),
               top5_share > 0.45);
  bench::shape("but a long tail of ASes flips occasionally", "2809 ASes",
               util::with_commas(report.flipping_ases) + " ASes",
               report.flipping_ases > 10);
  return 0;
}
