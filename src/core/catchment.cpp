#include "core/catchment.hpp"

namespace vp::core {

bool CatchmentMap::set(net::Block24 block, anycast::SiteId site, float rtt) {
  if (site == anycast::kUnknownSite) return false;
  PagePtr& page = pages_[block.index() >> kSlotBits];
  if (!page) {
    page.reset(new Page{});
    page->site.fill(anycast::kUnknownSite);
  }
  const std::uint32_t slot = block.index() & kSlotMask;
  if (page->site[slot] != anycast::kUnknownSite) return false;
  page->site[slot] = site;
  page->rtt[slot] = rtt;
  ++page->mapped;
  return true;
}

std::size_t CatchmentMap::mapped_blocks() const {
  std::size_t mapped = 0;
  for (const PagePtr& page : pages_) mapped += page ? page->mapped : 0;
  return mapped;
}

std::size_t CatchmentMap::bytes() const {
  std::size_t pages = 0;
  for (const PagePtr& page : pages_) pages += page != nullptr;
  return pages * sizeof(Page);
}

std::vector<std::uint64_t> CatchmentMap::per_site_counts(
    std::size_t site_count) const {
  std::vector<std::uint64_t> counts(site_count, 0);
  for (const auto& [block, site] : entries()) {
    if (site >= 0 && static_cast<std::size_t>(site) < site_count)
      ++counts[static_cast<std::size_t>(site)];
  }
  return counts;
}

double CatchmentMap::fraction_to(anycast::SiteId site) const {
  const std::size_t mapped = mapped_blocks();
  if (mapped == 0) return 0.0;
  std::uint64_t hits = 0;
  for (const auto& [block, s] : entries())
    if (s == site) ++hits;
  return static_cast<double>(hits) / static_cast<double>(mapped);
}

}  // namespace vp::core
