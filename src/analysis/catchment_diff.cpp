#include "analysis/catchment_diff.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace vp::analysis {

CatchmentDiff diff_catchments(const topology::Topology& topo,
                              const core::CatchmentMap& before,
                              const core::CatchmentMap& after,
                              const dnsload::LoadModel& load,
                              std::size_t top_as_count) {
  CatchmentDiff diff;
  std::map<std::pair<anycast::SiteId, anycast::SiteId>, SitePairFlow> flows;
  std::unordered_map<std::uint32_t, std::uint64_t> moved_by_asn;

  for (const auto& [block, before_site] : before.entries()) {
    const anycast::SiteId after_site = after.site_of(block);
    if (after_site == anycast::kUnknownSite) {
      ++diff.vanished_blocks;
      continue;
    }
    if (after_site == before_site) {
      ++diff.stable_blocks;
      continue;
    }
    ++diff.moved_blocks;
    const double queries = load.daily_queries(block);
    diff.moved_queries += queries;
    auto& flow = flows[{before_site, after_site}];
    flow.from = before_site;
    flow.to = after_site;
    ++flow.blocks;
    flow.daily_queries += queries;
    if (const auto* info = topo.block_info(block))
      ++moved_by_asn[topo.as_at(info->as_id).asn.value];
  }
  for (const auto& [block, site] : after.entries()) {
    if (!before.contains(block)) ++diff.appeared_blocks;
  }

  diff.flows.reserve(flows.size());
  for (const auto& [key, flow] : flows) diff.flows.push_back(flow);
  std::sort(diff.flows.begin(), diff.flows.end(),
            [](const SitePairFlow& a, const SitePairFlow& b) {
              return a.blocks > b.blocks;
            });

  diff.top_ases.reserve(moved_by_asn.size());
  for (const auto& [asn, count] : moved_by_asn) {
    MovedAs moved;
    moved.asn = asn;
    const auto id = topo.find_as(topology::AsNumber{asn});
    if (id != topology::kNoAs) moved.name = topo.as_at(id).name;
    moved.moved_blocks = count;
    diff.top_ases.push_back(std::move(moved));
  }
  // Ties by ASN, so which equal-count ASes survive the cut below does
  // not depend on moved_by_asn's hash order.
  std::sort(diff.top_ases.begin(), diff.top_ases.end(),
            [](const MovedAs& a, const MovedAs& b) {
              return a.moved_blocks != b.moved_blocks
                         ? a.moved_blocks > b.moved_blocks
                         : a.asn < b.asn;
            });
  if (diff.top_ases.size() > top_as_count)
    diff.top_ases.resize(top_as_count);
  return diff;
}

}  // namespace vp::analysis
