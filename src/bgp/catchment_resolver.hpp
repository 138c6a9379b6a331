// Precomputed catchment resolution: one flat block -> site table per
// routing table, built from that table alone.
//
// The paper's core economy is that catchments are a near-static function
// of BGP state (§5.5 finds week-scale stability), so resolving a block's
// site is worth doing once, not once per probe. Before this cache the
// per-probe path did three hash-map lookups of the same BlockInfo
// (FlipModel::site_in_round, is_flappy, RoutingTable::site_for_block)
// plus the multipath flow-hash; PR 4 instrumented that path
// (vp_bgp_block_site_lookups_total) precisely to size this table.
//
// The resolver materializes, at routing-table granularity:
//  * a direct-mapped std::vector<SiteId> over the topology's indexed /24
//    span (Topology::block_span) — the *stable* answer for every block,
//    folding hot-potato PoP choice and the stable multipath split, so the
//    hot path is a single O(1) array read;
//  * one bit per block: its AS is reachable and ties routes to more than
//    one site. Only these blocks can be flappy (the per-round re-roll
//    population of §6.3), so every other block skips the flip model's
//    flappy rule with one bit test;
//  * the deployment's visible-site list, so the transient-flip picker is
//    O(1) instead of rebuilding the list per event.
//
// It is flip-free: a pure function of the routing table, which builds it
// on first use (RoutingTable::catchment_resolver). The flip model applies
// its own flappy rule and transient events on top (sim/flips.hpp), and
// the two together answer exactly as FlipModel::site_in_round_uncached
// does, for every block and round (tests/route_cache_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "anycast/deployment.hpp"
#include "net/ipv4.hpp"

namespace vp::bgp {

class RoutingTable;

class CatchmentResolver {
 public:
  static constexpr std::size_t kNotVisible = ~std::size_t{0};

  explicit CatchmentResolver(const RoutingTable& routes);

  /// O(1): stable (hot-potato + stable-multipath) site for a block;
  /// kUnknownSite for unallocated blocks and unreachable ASes.
  anycast::SiteId stable_site(net::Block24 block) const {
    const std::uint32_t off = block.index() - first_;
    if (off >= sites_.size()) return anycast::kUnknownSite;
    return sites_[off];
  }

  /// O(1): whether the block's AS is reachable and ties routes to more
  /// than one site (AsRoutingState::reachable() && multi_site()).
  bool tied(net::Block24 block) const {
    const std::uint32_t off = block.index() - first_;
    if (off >= sites_.size()) return false;
    return (tied_bits_[off >> 6] >> (off & 63)) & 1u;
  }

  /// Visible (enabled, non-hidden) sites in site-id order — the
  /// candidate pool for transient one-round flips.
  std::span<const anycast::SiteId> visible_sites() const { return visible_; }

  /// Index of `site` within visible_sites(), or kNotVisible.
  std::size_t visible_position(anycast::SiteId site) const {
    if (site < 0 || static_cast<std::size_t>(site) >= visible_pos_.size())
      return kNotVisible;
    const std::uint16_t p = visible_pos_[static_cast<std::size_t>(site)];
    return p == 0xffff ? kNotVisible : p;
  }

  /// O(1) transient pick: the `pick`-th visible site excluding `current`,
  /// exactly matching the uncached picker's enumeration order. Returns
  /// `current` when it is the only visible site.
  anycast::SiteId transient_site(anycast::SiteId current,
                                 std::uint64_t pick) const {
    const std::size_t pos = visible_position(current);
    const std::size_t others =
        visible_.size() - (pos == kNotVisible ? 0 : 1);
    if (others == 0) return current;
    std::size_t k = pick % others;
    if (pos != kNotVisible && k >= pos) ++k;
    return visible_[k];
  }

  /// Bytes materialized (table + bitset + site lists).
  std::size_t bytes() const;

 private:
  std::uint32_t first_ = 0;  // Topology::block_first()
  std::vector<anycast::SiteId> sites_;       // direct-mapped by index-first_
  std::vector<std::uint64_t> tied_bits_;     // same indexing, 64 per word
  std::vector<anycast::SiteId> visible_;     // enabled && !hidden, in order
  std::vector<std::uint16_t> visible_pos_;   // site id -> pos, 0xffff absent
};

}  // namespace vp::bgp
