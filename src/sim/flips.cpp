#include "sim/flips.hpp"

#include "bgp/catchment_resolver.hpp"
#include "util/rng.hpp"

namespace vp::sim {

FlipModel::FlipModel(const FlipConfig& config)
    : config_(config),
      flappy_seed_(util::hash_combine(config.seed, 0xf1a9)),
      transient_seed_(util::hash_combine(config.seed, 0x7a4e)) {}

bool FlipModel::flappy_draw(const topology::AsNode& as,
                            net::Block24 block) const {
  const double rate =
      (as.load_balanced ? kFlappyRateLoadBalanced : kFlappyRateBackground) *
      as.flap_scale;
  return util::to_unit(util::hash_combine(flappy_seed_, block.index())) <
         rate;
}

bool FlipModel::is_flappy(const bgp::RoutingTable& routes,
                          net::Block24 block) const {
  const topology::BlockInfo* info = routes.topology().block_info(block);
  if (info == nullptr) return false;
  const bgp::AsRoutingState& state = routes.state(info->as_id);
  if (!state.reachable() || !state.multi_site()) return false;
  return flappy_draw(routes.topology().as_at(info->as_id), block);
}

anycast::SiteId FlipModel::site_in_round(const bgp::RoutingTable& routes,
                                         net::Block24 block,
                                         std::uint32_t round) const {
  // The stable majority is one bounds check + one load; only blocks of
  // tied ASes draw the flappy rule, and only flappy ones (the §6.3
  // minority) read their AS's tied candidate set.
  const bgp::CatchmentResolver& resolver = routes.catchment_resolver();
  anycast::SiteId site = resolver.stable_site(block);
  if (resolver.tied(block)) {
    const topology::BlockInfo* info = routes.topology().block_info(block);
    if (flappy_draw(routes.topology().as_at(info->as_id), block)) {
      const bgp::AsRoutingState& state = routes.state(info->as_id);
      const std::uint64_t h = util::hash_combine(
          util::hash_combine(config_.seed, block.index()), round);
      site = state.candidates[h % state.candidates.size()].site;
    }
  }

  const std::uint64_t th = util::hash_combine(
      transient_seed_, util::hash_combine(block.index(), round));
  if (site >= 0 && util::to_unit(th) < config_.transient_rate)
    site = resolver.transient_site(site, util::mix64(th));
  return site;
}

anycast::SiteId FlipModel::site_in_round_uncached(
    const bgp::RoutingTable& routes, net::Block24 block,
    std::uint32_t round) const {
  // Must enumerate identically to the resolver so both paths produce
  // byte-identical CSVs.
  anycast::SiteId site;
  const topology::BlockInfo* info = routes.topology().block_info(block);
  if (info == nullptr) return anycast::kUnknownSite;

  if (is_flappy(routes, block)) {
    const bgp::AsRoutingState& state = routes.state(info->as_id);
    const std::uint64_t h = util::hash_combine(
        util::hash_combine(config_.seed, block.index()), round);
    site = state.candidates[h % state.candidates.size()].site;
  } else {
    // Includes stable per-block multipath splits (§6.2).
    site = routes.site_for_block(*info);
  }

  // Transient routing event: for one round, the block lands at some other
  // visible site of the deployment.
  const std::uint64_t th = util::hash_combine(
      transient_seed_, util::hash_combine(block.index(), round));
  if (site >= 0 && util::to_unit(th) < config_.transient_rate) {
    const auto& sites = routes.deployment().sites;
    const auto visible = [&](std::size_t s) {
      return sites[s].enabled && !sites[s].hidden &&
             static_cast<anycast::SiteId>(s) != site;
    };
    std::size_t others = 0;
    for (std::size_t s = 0; s < sites.size(); ++s)
      if (visible(s)) ++others;
    if (others > 0) {
      std::size_t k = util::mix64(th) % others;
      for (std::size_t s = 0; s < sites.size(); ++s) {
        if (!visible(s)) continue;
        if (k-- == 0) {
          site = static_cast<anycast::SiteId>(s);
          break;
        }
      }
    }
  }
  return site;
}

}  // namespace vp::sim
