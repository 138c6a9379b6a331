// Table 5: coverage of Verfploeter as seen from B-Root's traffic — of the
// blocks that send queries, how many (and how much traffic) can the
// catchment map attribute to a site?
#include "analysis/load_analysis.hpp"
#include "bench/harness.hpp"
#include "core/probe_engine.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env()};
  bench::banner("Table 5", "coverage of Verfploeter from B-Root traffic",
                scenario);

  const auto routes_ptr = scenario.route(scenario.broot(), analysis::kMayEpoch);
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 515;
  const auto map = scenario.engine().run(routes, {probe, 0}).map;
  const auto load = scenario.broot_load(0x20170515);  // LB-5-15
  const auto coverage = analysis::compute_traffic_coverage(load, map);

  util::Table table{{"", "/24s", "%", "q/day", "%"}, {util::Align::kLeft}};
  table.add_row({"seen at B-Root", util::with_commas(coverage.blocks_seen),
                 "100%", util::si_count(coverage.queries_seen), "100%"});
  table.add_row({"mapped by Verfploeter",
                 util::with_commas(coverage.blocks_mapped),
                 util::percent(coverage.mapped_block_fraction()),
                 util::si_count(coverage.queries_mapped),
                 util::percent(coverage.mapped_query_fraction())});
  table.add_row({"not mappable", util::with_commas(coverage.blocks_unmapped),
                 util::percent(1.0 - coverage.mapped_block_fraction()),
                 util::si_count(coverage.queries_unmapped),
                 util::percent(1.0 - coverage.mapped_query_fraction())});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("shape checks (paper: Table 5, SBV-5-15 x LB-5-15):\n");
  const double blocks = coverage.mapped_block_fraction();
  const double queries = coverage.mapped_query_fraction();
  bench::shape("most querying blocks are mappable", "87.1%",
               util::percent(blocks), blocks > 0.75 && blocks < 0.95);
  bench::shape("unmappable blocks carry MORE load per block",
               "12.9% blk/17.6% q",
               util::percent(1 - blocks) + " blk/" +
                   util::percent(1 - queries) + " q",
               queries < blocks);
  return 0;
}
