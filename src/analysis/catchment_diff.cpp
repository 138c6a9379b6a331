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

  const auto moved = [&](net::Block24 block, anycast::SiteId from,
                         anycast::SiteId to) {
    ++diff.moved_blocks;
    const double queries = load.daily_queries(block);
    diff.moved_queries += queries;
    auto& flow = flows[{from, to}];
    flow.from = from;
    flow.to = to;
    ++flow.blocks;
    flow.daily_queries += queries;
    if (const auto* info = topo.block_info(block))
      ++moved_by_asn[topo.as_at(info->as_id).asn.value];
  };
  // Both maps' pages side by side in ascending page order, and each
  // shared page slot by slot, so moves (and moved_queries' sum) come in
  // ascending block order. A page only one map holds is all vanished or
  // all appeared blocks.
  using Page = core::CatchmentMap::PageView;
  auto before_pages = before.pages();
  auto after_pages = after.pages();
  auto b = before_pages.begin();
  auto a = after_pages.begin();
  while (b != before_pages.end() || a != after_pages.end()) {
    if (a == after_pages.end() ||
        (b != before_pages.end() && (*b).page < (*a).page)) {
      diff.vanished_blocks += (*b++).mapped;
      continue;
    }
    if (b == before_pages.end() || (*a).page < (*b).page) {
      diff.appeared_blocks += (*a++).mapped;
      continue;
    }
    const Page from = *b++;
    const Page to = *a++;
    for (std::uint32_t slot = 0; slot < core::CatchmentMap::kSlots; ++slot) {
      const anycast::SiteId before_site = from.site[slot];
      const anycast::SiteId after_site = to.site[slot];
      if (before_site == after_site) {
        diff.stable_blocks += before_site != anycast::kUnknownSite;
      } else if (before_site == anycast::kUnknownSite) {
        ++diff.appeared_blocks;
      } else if (after_site == anycast::kUnknownSite) {
        ++diff.vanished_blocks;
      } else {
        moved(from.block(slot), before_site, after_site);
      }
    }
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
