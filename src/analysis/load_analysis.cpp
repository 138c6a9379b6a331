#include "analysis/load_analysis.hpp"

#include <numeric>

namespace vp::analysis {

TrafficCoverage compute_traffic_coverage(const dnsload::LoadModel& load,
                                         const core::CatchmentMap& map) {
  TrafficCoverage out;
  for (const dnsload::BlockLoad& bl : load.blocks()) {
    ++out.blocks_seen;
    out.queries_seen += bl.daily_queries;
    if (map.contains(bl.block)) {
      ++out.blocks_mapped;
      out.queries_mapped += bl.daily_queries;
    } else {
      ++out.blocks_unmapped;
      out.queries_unmapped += bl.daily_queries;
    }
  }
  return out;
}

double LoadSplit::total(bool include_unknown) const {
  double sum = std::accumulate(site_queries.begin(), site_queries.end(), 0.0);
  if (include_unknown) sum += unknown_queries;
  return sum;
}

double LoadSplit::fraction_to(anycast::SiteId site,
                              bool include_unknown) const {
  const double denominator = total(include_unknown);
  if (denominator <= 0 || site < 0 ||
      static_cast<std::size_t>(site) >= site_queries.size()) {
    return 0.0;
  }
  return site_queries[static_cast<std::size_t>(site)] / denominator;
}

LoadSplit predict_load(const dnsload::LoadModel& load,
                       const core::CatchmentMap& map,
                       std::size_t site_count, LoadWeight weight) {
  return split_load(
      load, site_count, [&map](net::Block24 b) { return map.site_of(b); },
      weight);
}

LoadSplit actual_load(const dnsload::LoadModel& load,
                      const bgp::RoutingTable& routes,
                      const sim::FlipModel& flips, std::uint32_t round) {
  // Unreachable ASes (rare) land in unknown.
  return split_load(load, routes.deployment().sites.size(),
                    [&](net::Block24 b) {
                      return flips.site_in_round(routes, b, round);
                    });
}

std::vector<std::vector<double>> hourly_load_by_site(
    const topology::Topology& topo, const dnsload::LoadModel& load,
    const core::CatchmentMap& map, std::size_t site_count) {
  std::vector<std::vector<double>> hours(
      24, std::vector<double>(site_count + 1, 0.0));
  for (const dnsload::BlockLoad& bl : load.blocks()) {
    const anycast::SiteId site = map.site_of(bl.block);
    const std::size_t column =
        site >= 0 && static_cast<std::size_t>(site) < site_count
            ? static_cast<std::size_t>(site)
            : site_count;  // UNKNOWN
    double lon = 0.0;
    if (const auto geo = topo.geodb().lookup(bl.block)) lon = geo->location.lon;
    for (int h = 0; h < 24; ++h) {
      const double queries_this_hour =
          bl.daily_queries * dnsload::LoadModel::hourly_weight(lon, h);
      hours[static_cast<std::size_t>(h)][column] +=
          queries_this_hour / 3600.0;  // average q/s in the hour
    }
  }
  return hours;
}

}  // namespace vp::analysis
