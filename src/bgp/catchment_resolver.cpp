#include "bgp/catchment_resolver.hpp"

#include "bgp/routing.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace vp::bgp {

CatchmentResolver::CatchmentResolver(const RoutingTable& routes) {
  auto& registry = obs::metrics();
  obs::Span span{&registry.histogram("vp_bgp_resolver_build_ms",
                                     obs::latency_buckets_ms())};

  // The generators hand out near-contiguous /24 runs, so a direct-mapped
  // table over the topology's indexed span costs ~1 byte per allocated
  // block and turns resolution into one bounds check + one load.
  const topology::Topology& topo = routes.topology();
  first_ = topo.block_first();
  sites_.assign(topo.block_span(), anycast::kUnknownSite);
  tied_bits_.assign((sites_.size() + 63) / 64, 0);
  for (const topology::BlockInfo& info : topo.blocks()) {
    const std::uint32_t off = info.block.index() - first_;
    sites_[off] = routes.site_for_block(info);
    const AsRoutingState& state = routes.state(info.as_id);
    if (state.reachable() && state.multi_site())
      tied_bits_[off >> 6] |= std::uint64_t{1} << (off & 63);
  }

  const auto& sites = routes.deployment().sites;
  visible_pos_.assign(sites.size(), 0xffff);
  for (std::size_t s = 0; s < sites.size(); ++s) {
    if (!sites[s].enabled || sites[s].hidden) continue;
    visible_pos_[s] = static_cast<std::uint16_t>(visible_.size());
    visible_.push_back(static_cast<anycast::SiteId>(s));
  }

  registry.counter("vp_bgp_resolver_builds_total").add();
  registry.gauge("vp_bgp_resolver_bytes").add(static_cast<double>(bytes()));
}

std::size_t CatchmentResolver::bytes() const {
  return sizeof(*this) + sites_.capacity() * sizeof(anycast::SiteId) +
         tied_bits_.capacity() * sizeof(std::uint64_t) +
         visible_.capacity() * sizeof(anycast::SiteId) +
         visible_pos_.capacity() * sizeof(std::uint16_t);
}

}  // namespace vp::bgp
