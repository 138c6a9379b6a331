// Load estimation and prediction (paper §3.2, §5.4, §5.5; Tables 5-6,
// Figure 6).
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/routing.hpp"
#include "core/catchment.hpp"
#include "dnsload/load_model.hpp"
#include "sim/flips.hpp"

namespace vp::analysis {

/// Table 5: how much of the service's real traffic Verfploeter can map.
struct TrafficCoverage {
  std::uint64_t blocks_seen = 0;    // blocks sending queries to the service
  std::uint64_t blocks_mapped = 0;  // of those, in the catchment map
  std::uint64_t blocks_unmapped = 0;
  double queries_seen = 0.0;  // q/day
  double queries_mapped = 0.0;
  double queries_unmapped = 0.0;

  double mapped_block_fraction() const {
    return blocks_seen ? static_cast<double>(blocks_mapped) /
                             static_cast<double>(blocks_seen)
                       : 0.0;
  }
  double mapped_query_fraction() const {
    return queries_seen > 0 ? queries_mapped / queries_seen : 0.0;
  }
};

TrafficCoverage compute_traffic_coverage(const dnsload::LoadModel& load,
                                         const core::CatchmentMap& map);

/// Per-site load split (q/day). `unknown` holds traffic from querying
/// blocks outside the catchment map.
struct LoadSplit {
  std::vector<double> site_queries;
  double unknown_queries = 0.0;

  double total(bool include_unknown = true) const;
  /// Fraction of traffic to `site`. Per the paper (§5.4) unknown-block
  /// traffic is assumed to split "in similar proportion to blocks in
  /// known catchments", so the default excludes unknown from the
  /// denominator.
  double fraction_to(anycast::SiteId site,
                     bool include_unknown = false) const;
};

/// What to weight blocks by when splitting load across sites. The paper
/// (§3.2) separates query volume from *good* replies because root
/// traffic is mostly junk names — an operator may provision for either.
enum class LoadWeight {
  kQueries,      // all incoming queries
  kGoodReplies,  // queries that produce useful answers
};

/// The one per-site split loop: each querying block's volume goes to the
/// site `site_of(block)` names, or to unknown when that is not a site
/// below `site_count`. Blocks are summed in LoadModel::blocks() order.
template <typename SiteOf>
LoadSplit split_load(const dnsload::LoadModel& load, std::size_t site_count,
                     SiteOf&& site_of,
                     LoadWeight weight = LoadWeight::kQueries) {
  LoadSplit out;
  out.site_queries.assign(site_count, 0.0);
  for (const dnsload::BlockLoad& bl : load.blocks()) {
    const double volume =
        weight == LoadWeight::kQueries
            ? bl.daily_queries
            : bl.daily_queries * static_cast<double>(bl.good_fraction);
    const anycast::SiteId site = site_of(bl.block);
    if (site >= 0 && static_cast<std::size_t>(site) < site_count) {
      out.site_queries[static_cast<std::size_t>(site)] += volume;
    } else {
      out.unknown_queries += volume;
    }
  }
  return out;
}

/// Prediction: catchment map (measured) x load model (historical logs).
LoadSplit predict_load(const dnsload::LoadModel& load,
                       const core::CatchmentMap& map,
                       std::size_t site_count,
                       LoadWeight weight = LoadWeight::kQueries);

/// Ground truth: where each querying block's traffic actually lands under
/// the given routing epoch and round — what the operator's own server
/// logs would report (the "Act. Load" row of Table 6).
LoadSplit actual_load(const dnsload::LoadModel& load,
                      const bgp::RoutingTable& routes,
                      const sim::FlipModel& flips, std::uint32_t round);

/// Figure 6: hourly (24 bins) load per site; last column is UNKNOWN.
/// Result is [hour][site_count + 1], in queries/second averaged per hour.
std::vector<std::vector<double>> hourly_load_by_site(
    const topology::Topology& topo, const dnsload::LoadModel& load,
    const core::CatchmentMap& map, std::size_t site_count);

}  // namespace vp::analysis
