// Catchment flip model: which blocks change anycast site between rounds.
//
// The paper (§6.3, Table 7) finds anycast is stable for ~99.9% of VPs per
// round, but a small population — concentrated in a handful of ASes with
// load-balanced multipath, half of it in Chinanet — flips persistently.
// We model this on top of the routing table's *tied* candidate sets: a
// block can only flip between sites that BGP actually holds as equal-best
// at its AS. Within load-balanced ASes a small "flappy" population picks a
// tied route per round (per-flow load balancing); every other multi-route
// AS contributes a rare background flip (transient routing changes).
//
// The stable answer is the routing table's own (its flip-free catchment
// resolver, bgp/catchment_resolver.hpp); the model applies its flappy
// rule to the blocks the resolver marks as tied, and its transient events
// to every block. Every decision is a stateless hash of (seed, block,
// round): const methods are pure and safe under concurrent probe workers
// (core/probe_engine.hpp).
#pragma once

#include <cstdint>

#include "bgp/routing.hpp"
#include "net/ipv4.hpp"

namespace vp::sim {

/// Fraction of blocks within a load-balanced, multi-site AS that are
/// persistently flappy (re-rolled each round).
inline constexpr double kFlappyRateLoadBalanced = 0.010;
/// Same, for ASes that are multi-site-tied but not flagged load-balanced.
inline constexpr double kFlappyRateBackground = 0.0008;

struct FlipConfig {
  std::uint64_t seed = 11;
  /// Per-(block, round) probability of a transient routing event sending
  /// the block to a different site for just that round — the long "Other"
  /// tail of Table 7: thousands of ASes with one or two flips each.
  double transient_rate = 0.0003;
};

class FlipModel {
 public:
  explicit FlipModel(const FlipConfig& config = {});

  const FlipConfig& config() const { return config_; }

  /// Ground-truth site of a block in a specific round: the table's stable
  /// (hot-potato + stable-multipath) site, unless the block is flappy
  /// (per-round pick among the AS's tied candidates) or hit by a
  /// transient routing event (any other visible site, for one round
  /// only).
  anycast::SiteId site_in_round(const bgp::RoutingTable& routes,
                                net::Block24 block,
                                std::uint32_t round) const;

  /// The same answer computed without the table's catchment resolver:
  /// lookups of the block's AS state on every call. The reference the
  /// resolver path is tested and benchmarked against.
  anycast::SiteId site_in_round_uncached(const bgp::RoutingTable& routes,
                                         net::Block24 block,
                                         std::uint32_t round) const;

  /// Whether the block belongs to the flappy population under `routes`.
  bool is_flappy(const bgp::RoutingTable& routes, net::Block24 block) const;

 private:
  /// The flappy rule for a block of `as` that is reachable and tied to
  /// more than one site.
  bool flappy_draw(const topology::AsNode& as, net::Block24 block) const;

  FlipConfig config_;
  /// The (seed, stream) prefixes of every flappy and transient hash.
  std::uint64_t flappy_seed_;
  std::uint64_t transient_seed_;
};

}  // namespace vp::sim
