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
// Every decision is a stateless hash of (seed, block, round): const
// methods are pure and safe under concurrent probe workers
// (core/probe_engine.hpp).
#pragma once

#include <cstdint>

#include "bgp/routing.hpp"
#include "net/ipv4.hpp"

namespace vp::sim {

/// Batched resolution counters. The probe engine hands one of these to
/// site_in_round for a whole run of blocks and flushes the totals to the
/// striped metric counters once per run, instead of touching the obs
/// layer on every probe. hits = O(1) precomputed-resolver path; misses =
/// full hash-map walk (flip-signature mismatch).
struct ResolveTally {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

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

  /// Ground-truth site of a block in a specific round: the hot-potato
  /// choice, unless the block is flappy (per-round pick among the AS's
  /// tied candidates) or hit by a transient routing event (any other
  /// visible site, for one round only). When `tally` is non-null the
  /// hit/miss count is accumulated there instead of hitting the striped
  /// metric counters — callers flush per run (the site answer itself is
  /// identical either way).
  anycast::SiteId site_in_round(const bgp::RoutingTable& routes,
                                net::Block24 block, std::uint32_t round,
                                ResolveTally* tally = nullptr) const;

  /// The same answer computed without the table's catchment resolver:
  /// hash-map lookups of the block's AS state on every call. This is what
  /// site_in_round falls back to on a flip-signature mismatch, and the
  /// reference the resolver is tested and benchmarked against.
  anycast::SiteId site_in_round_uncached(const bgp::RoutingTable& routes,
                                         net::Block24 block,
                                         std::uint32_t round) const;

  /// Flushes a ResolveTally accumulated via site_in_round to the metric
  /// counters, leaving `tally` zeroed.
  static void flush(ResolveTally& tally);

  /// Whether the block belongs to the flappy population under `routes`.
  bool is_flappy(const bgp::RoutingTable& routes, net::Block24 block) const;

  /// Hash of the flip configuration that shapes the flappy bitset (the
  /// seed; transient_rate stays out because transient events are rolled
  /// per probe, never baked into the resolver). Computed once, at
  /// construction.
  std::uint64_t flap_signature() const { return flap_signature_; }

  /// The routing table's catchment resolver for this flip configuration,
  /// building it on first use; nullptr when the table's resolver was built
  /// under a different flip signature (callers fall back to the uncached
  /// path — answers are identical either way). Once built, this is one
  /// acquire load and a signature compare.
  const bgp::CatchmentResolver* resolver_for(
      const bgp::RoutingTable& routes) const;

  /// Eagerly builds the resolver (probe engines call this once per round
  /// setup so the first probe doesn't pay the build).
  void warm(const bgp::RoutingTable& routes) const { (void)resolver_for(routes); }

 private:
  FlipConfig config_;
  std::uint64_t flap_signature_;
  /// The (seed, stream) prefix of every transient-event hash.
  std::uint64_t transient_seed_;
};

}  // namespace vp::sim
