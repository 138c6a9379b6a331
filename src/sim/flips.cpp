#include "sim/flips.hpp"

#include <memory>

#include "bgp/catchment_resolver.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace vp::sim {

namespace {
// Per-probe resolution counters. Hits mean the O(1) precomputed path
// served the probe; misses mean the full hash-map walk did (flip-signature
// mismatch). hits + misses counts every site lookup.
struct ResolveMetrics {
  obs::Counter& hits;
  obs::Counter& misses;

  static ResolveMetrics& get() {
    auto& r = obs::metrics();
    static ResolveMetrics m{
        r.counter("vp_bgp_catchment_cache_hits_total"),
        r.counter("vp_bgp_catchment_cache_misses_total")};
    return m;
  }
};
}  // namespace

bool FlipModel::is_flappy(const bgp::RoutingTable& routes,
                          net::Block24 block) const {
  const topology::BlockInfo* info = routes.topology().block_info(block);
  if (info == nullptr) return false;
  const bgp::AsRoutingState& state = routes.state(info->as_id);
  if (!state.reachable() || !state.multi_site()) return false;
  const topology::AsNode& node = routes.topology().as_at(info->as_id);
  const double rate =
      (node.load_balanced ? kFlappyRateLoadBalanced : kFlappyRateBackground) *
      node.flap_scale;
  return util::to_unit(util::hash_combine(
             util::hash_combine(config_.seed, 0xf1a9), block.index())) < rate;
}

FlipModel::FlipModel(const FlipConfig& config)
    : config_(config),
      flap_signature_(util::hash_combine(util::mix64(0xf11b), config.seed)),
      transient_seed_(util::hash_combine(config.seed, 0x7a4e)) {}

const bgp::CatchmentResolver* FlipModel::resolver_for(
    const bgp::RoutingTable& routes) const {
  const bgp::CatchmentResolver* resolver = routes.catchment_resolver();
  if (resolver == nullptr) {
    resolver = &routes.build_catchment_resolver([&] {
      return std::make_unique<const bgp::CatchmentResolver>(
          routes, flap_signature_,
          [&](const net::Block24& b) { return is_flappy(routes, b); });
    });
  }
  return resolver->flip_signature() == flap_signature_ ? resolver : nullptr;
}

void FlipModel::flush(ResolveTally& tally) {
  if (tally.hits == 0 && tally.misses == 0) return;
  ResolveMetrics& rm = ResolveMetrics::get();
  if (tally.hits) rm.hits.add(tally.hits);
  if (tally.misses) rm.misses.add(tally.misses);
  tally = {};
}

anycast::SiteId FlipModel::site_in_round(const bgp::RoutingTable& routes,
                                         net::Block24 block,
                                         std::uint32_t round,
                                         ResolveTally* tally) const {
  if (const bgp::CatchmentResolver* resolver = resolver_for(routes)) {
    // Fast path: the stable majority is one bounds check + one load; only
    // flappy blocks (the §6.3 minority) still reach into the hash map for
    // their AS's tied candidate set.
    if (tally != nullptr)
      ++tally->hits;
    else
      ResolveMetrics::get().hits.add();
    anycast::SiteId site;
    if (resolver->flappy(block)) {
      const topology::BlockInfo* info = routes.topology().block_info(block);
      const bgp::AsRoutingState& state = routes.state(info->as_id);
      const std::uint64_t h = util::hash_combine(
          util::hash_combine(config_.seed, block.index()), round);
      site = state.candidates[h % state.candidates.size()].site;
    } else {
      site = resolver->stable_site(block);
    }

    const std::uint64_t th = util::hash_combine(
        transient_seed_, util::hash_combine(block.index(), round));
    if (site >= 0 && util::to_unit(th) < config_.transient_rate)
      site = resolver->transient_site(site, util::mix64(th));
    return site;
  }

  if (tally != nullptr)
    ++tally->misses;
  else
    ResolveMetrics::get().misses.add();
  return site_in_round_uncached(routes, block, round);
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
