#include "topology/scale_generator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "geo/world.hpp"
#include "topology/gen_util.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vp::topology {
namespace {

using geo::PopulationCenter;
using util::Rng;
using util::hash_combine;
using util::mix64;
using util::to_unit;

// Phase tags keeping the per-entity substreams independent: the draws an
// AS makes for its PoPs can never alias the draws it makes for its edges.
constexpr std::uint64_t kHomeTag = 0x486f6d65;   // "Home"
constexpr std::uint64_t kPopsTag = 0x506f7073;   // "Pops"
constexpr std::uint64_t kPlanTag = 0x506c616e;   // "Plan"
constexpr std::uint64_t kEdgeTag = 0x45646765;   // "Edge"
constexpr std::uint64_t kFlagTag = 0x466c6167;   // "Flag"
constexpr std::uint64_t kBlockTag = 0x426c6f63;  // "Bloc"
constexpr std::uint64_t kGeoTag = 0x47656f52;    // "GeoR"

/// Share of non-transit ASes that are regional providers.
constexpr double kRegionalFraction = 0.12;
/// Chance a regional buys from a lower-id regional.
constexpr double kSecondTierRate = 0.30;

/// Pairwise distances over the fixed world centers, computed once per
/// generation. All structural decisions (nearest PoP, same-continent
/// neighbor lists) compare entries of this matrix with index tiebreaks, so
/// they are stable across libm implementations and evaluation orders.
struct CenterGeometry {
  CenterGeometry() {
    const auto centers = geo::world_centers();
    n = centers.size();
    dist.resize(n * n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        dist[i * n + j] =
            geo::distance_km(centers[i].location, centers[j].location);
    near_same_continent.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      std::vector<std::pair<double, std::uint16_t>> ranked;
      for (std::size_t o = 0; o < n; ++o) {
        if (o == c || centers[o].continent != centers[c].continent) continue;
        ranked.emplace_back(dist[c * n + o], static_cast<std::uint16_t>(o));
      }
      std::sort(ranked.begin(), ranked.end());
      for (const auto& [d, o] : ranked) near_same_continent[c].push_back(o);
    }
  }

  double at(std::uint16_t a, std::uint16_t b) const { return dist[a * n + b]; }

  /// Index of the pop in `pops` whose center is closest to `center`
  /// (ties: lowest index).
  std::uint16_t nearest_pop(std::span<const Pop> pops,
                            std::uint16_t center) const {
    std::uint16_t best = 0;
    double best_d = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < pops.size(); ++i) {
      const double d = at(pops[i].center_id, center);
      if (d < best_d) {
        best_d = d;
        best = static_cast<std::uint16_t>(i);
      }
    }
    return best;
  }

  /// Closest pop pair between two pop lists (ties: lexicographic indexes).
  std::pair<std::uint16_t, std::uint16_t> closest_pair(
      std::span<const Pop> a, std::span<const Pop> b) const {
    std::pair<std::uint16_t, std::uint16_t> best{0, 0};
    double best_d = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t j = 0; j < b.size(); ++j) {
        const double d = at(a[i].center_id, b[j].center_id);
        if (d < best_d) {
          best_d = d;
          best = {static_cast<std::uint16_t>(i),
                  static_cast<std::uint16_t>(j)};
        }
      }
    }
    return best;
  }

  std::size_t n = 0;
  std::vector<double> dist;
  std::vector<std::vector<std::uint16_t>> near_same_continent;
};

/// Prefix-length plan for one AS: a heavy-tailed total block demand split
/// into power-of-two prefixes (the same mechanism that drives Figures 7/8
/// in the sequential generator, expressed as a pure per-AS function).
std::vector<std::uint8_t> plan_lens(double mean, Rng& rng) {
  // Pareto(0.2308, 1.3) has unit mean, so E[demand] == mean per tier.
  const double factor = std::clamp(rng.pareto(0.2308, 1.3), 0.05, 64.0);
  auto target = static_cast<std::uint64_t>(
      std::llround(std::max(1.0, mean * factor)));
  std::vector<std::uint8_t> lens;
  while (target > 0 && lens.size() < 48) {
    std::uint64_t size = std::min<std::uint64_t>(std::bit_floor(target),
                                                 4096);  // cap at /12
    while (size > 1 && rng.chance(0.35)) size >>= 1;
    lens.push_back(static_cast<std::uint8_t>(
        24 - std::countr_zero(static_cast<std::uint32_t>(size))));
    target -= size;
  }
  return lens;
}

}  // namespace

struct ScaleGenerator::Impl {
  explicit Impl(const ScaleConfig& config)
      : cfg(config),
        root(mix64(config.seed)),
        sampler(&PopulationCenter::block_weight) {
    cfg.shard_size = std::max<std::uint32_t>(cfg.shard_size, 1);
    n_total = std::max<std::uint32_t>(cfg.as_count, 4);
    n_transit = std::clamp<std::uint32_t>(cfg.transit_count, 1, n_total);
    const std::uint32_t rest = n_total - n_transit;
    n_regional = std::min<std::uint32_t>(
        rest, static_cast<std::uint32_t>(
                  std::llround(kRegionalFraction * rest)));
    n_stub = rest - n_regional;

    // Address budget split by tier; empty tiers hand their share down.
    const double blocks = std::max<double>(cfg.target_blocks, 1.0);
    double bt = 0.12 * blocks, br = 0.38 * blocks, bs = 0.50 * blocks;
    if (n_regional == 0) { bs += br; br = 0; }
    if (n_stub == 0) {
      if (n_regional > 0) br += bs; else bt += bs;
      bs = 0;
    }
    // The clamps in plan_lens (factor cap, /12 ceiling, 48-prefix cap)
    // trim ~25% of the Pareto tail; scale the raw means back up so the
    // realized block count lands on target_blocks.
    constexpr double kDemandCalibration = 1.34;
    mean_t = std::max(1.0, kDemandCalibration * bt / n_transit);
    mean_r = n_regional
                 ? std::max(1.0, kDemandCalibration * br / n_regional)
                 : 0.0;
    mean_s = n_stub ? std::max(1.0, kDemandCalibration * bs / n_stub) : 0.0;

    // Transit PoP sets are pure per-AS functions, but every regional and
    // stub consults them for remote attachment points — precompute once.
    transit_pops.resize(n_transit);
    for (std::uint32_t t = 0; t < n_transit; ++t) {
      Rng rng{key(kPopsTag, t)};
      const std::size_t k = 10 + rng.below(7);
      transit_pops[t] = gen::make_pops(gen::sample_distinct(sampler, rng, k));
    }
  }

  std::uint64_t key(std::uint64_t tag, std::uint64_t id) const {
    return hash_combine(hash_combine(root, tag), id);
  }

  AsTier tier_of(AsId v) const {
    return v < n_transit                ? AsTier::kTransit
           : v < n_transit + n_regional ? AsTier::kRegional
                                        : AsTier::kStub;
  }

  std::uint16_t home_center(AsId v) const {
    Rng rng{key(kHomeTag, v)};
    return sampler.sample(rng);
  }

  /// Center ids of a regional's pops, re-derivable by any worker (the
  /// provider-selection path needs a *remote* AS's pop list without
  /// planning it in full).
  std::vector<std::uint16_t> regional_pop_centers(AsId r) const {
    const std::uint16_t home = home_center(r);
    Rng rng{key(kPopsTag, r)};
    const std::size_t extra = rng.below(5);
    std::vector<std::uint16_t> centers{home};
    const auto& near = geom.near_same_continent[home];
    for (std::size_t i = 0; i < extra && i < near.size(); ++i)
      centers.push_back(near[i]);
    return centers;
  }

  /// Pop index of regional `r` closest to `center`.
  std::uint16_t nearest_regional_pop(AsId r, std::uint16_t center) const {
    const auto centers = regional_pop_centers(r);
    std::uint16_t best = 0;
    double best_d = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < centers.size(); ++i) {
      const double d = geom.at(centers[i], center);
      if (d < best_d) {
        best_d = d;
        best = static_cast<std::uint16_t>(i);
      }
    }
    return best;
  }

  AsPlan plan_as(AsId v) const;

  ScaleConfig cfg;
  std::uint64_t root;
  std::uint32_t n_total = 0, n_transit = 0, n_regional = 0, n_stub = 0;
  double mean_t = 0, mean_r = 0, mean_s = 0;
  gen::CenterSampler sampler;
  CenterGeometry geom;
  std::vector<std::vector<Pop>> transit_pops;
};

AsPlan ScaleGenerator::Impl::plan_as(AsId v) const {
  AsPlan p;
  const AsTier tier = tier_of(v);
  p.node.asn = AsNumber{1'000'000 + v};  // disjoint from real/special ASNs
  p.node.tier = tier;
  const std::uint16_t home =
      tier == AsTier::kTransit ? 0 : home_center(v);

  // PoPs ---------------------------------------------------------------
  switch (tier) {
    case AsTier::kTransit:
      p.node.pops = transit_pops[v];
      p.node.name = "GT-" + std::to_string(p.node.asn.value);
      break;
    case AsTier::kRegional: {
      std::vector<std::uint16_t> centers = regional_pop_centers(v);
      p.node.pops = gen::make_pops(centers);
      p.node.name = "GR-" + std::to_string(p.node.asn.value);
      break;
    }
    case AsTier::kStub:
      p.node.pops = gen::make_pops(std::array{home});
      p.node.name = "GS-" + std::to_string(p.node.asn.value);
      break;
  }

  // Prefix plan --------------------------------------------------------
  {
    Rng rng{key(kPlanTag, v)};
    const double mean = tier == AsTier::kTransit    ? mean_t
                        : tier == AsTier::kRegional ? mean_r
                                                    : mean_s;
    p.prefix_lens = plan_lens(mean, rng);
    for (const std::uint8_t len : p.prefix_lens)
      p.block_demand += 1u << (24 - len);
  }

  // Edges (always toward lower ids: transits < regionals < stubs, and
  // lateral edges target lower-id members of the same tier, so applying
  // plans in id order never references a missing node and the
  // customer->provider graph is a DAG by construction) -----------------
  int extra_providers = 0;
  {
    Rng rng{key(kEdgeTag, v)};
    const auto has_edge = [&p](AsId peer) {
      for (const PlannedEdge& e : p.edges)
        if (e.peer == peer) return true;
      return false;
    };
    switch (tier) {
      case AsTier::kTransit:
        // Full peer mesh, each pair initiated by the higher id.
        for (AsId u = 0; u < v; ++u) {
          const auto [pv, pu] =
              geom.closest_pair(transit_pops[v], transit_pops[u]);
          p.edges.push_back(PlannedEdge{u, Relationship::kPeer, pv, pu});
        }
        break;
      case AsTier::kRegional: {
        const std::uint32_t lower_regionals = v - n_transit;
        const int providers = 1 + static_cast<int>(rng.below(2));
        std::vector<AsId> chosen;
        for (int i = 0; i < providers; ++i) {
          AsId t = static_cast<AsId>(rng.below(n_transit));
          for (int g = 0;
               g < 8 && std::find(chosen.begin(), chosen.end(), t) !=
                            chosen.end();
               ++g)
            t = static_cast<AsId>(rng.below(n_transit));
          if (std::find(chosen.begin(), chosen.end(), t) == chosen.end())
            chosen.push_back(t);
        }
        // Second-tier regionals buy from a lower-id regional instead of
        // their first transit — the AS-path-length diversity that makes
        // prepending shift load gradually (§6.1). Lower-id-only keeps the
        // provider DAG acyclic, and low-id regionals never do this, so
        // every chain bottoms out at a transit.
        if (lower_regionals >= 8 && rng.chance(kSecondTierRate))
          chosen.front() =
              n_transit + static_cast<AsId>(rng.below(lower_regionals));
        for (const AsId c : chosen) {
          if (c < n_transit) {
            p.edges.push_back(PlannedEdge{
                c, Relationship::kProvider, 0,
                geom.nearest_pop(transit_pops[c], home)});
          } else {
            p.edges.push_back(PlannedEdge{c, Relationship::kProvider, 0,
                                          nearest_regional_pop(c, home)});
          }
        }
        if (lower_regionals >= 2 && rng.chance(cfg.peering_density)) {
          const AsId peer =
              n_transit + static_cast<AsId>(rng.below(lower_regionals));
          if (!has_edge(peer))
            p.edges.push_back(PlannedEdge{peer, Relationship::kPeer, 0,
                                          nearest_regional_pop(peer, home)});
        }
        break;
      }
      case AsTier::kStub: {
        // Primary provider: probe a few regionals for one sharing the
        // stub's home center (geography-shaped attachment), falling back
        // to the first candidate, or to a transit if there are no
        // regionals at all.
        AsId primary;
        if (n_regional > 0) {
          primary = n_transit + static_cast<AsId>(rng.below(n_regional));
          AsId probe = primary;
          for (int i = 0; i < 6; ++i) {
            if (home_center(probe) == home) {
              primary = probe;
              break;
            }
            probe = n_transit + static_cast<AsId>(rng.below(n_regional));
          }
        } else {
          primary = static_cast<AsId>(rng.below(n_transit));
        }
        const auto push_provider = [&](AsId prov) {
          if (has_edge(prov)) return;
          if (prov < n_transit) {
            p.edges.push_back(PlannedEdge{
                prov, Relationship::kProvider, 0,
                geom.nearest_pop(transit_pops[prov], home)});
          } else {
            p.edges.push_back(PlannedEdge{prov, Relationship::kProvider, 0,
                                          nearest_regional_pop(prov, home)});
          }
        };
        push_provider(primary);
        // Extra providers: geometric with mean ~= multihoming_mean (the
        // knob Figure 7's multi-site fraction responds to). Cross-cone by
        // construction — picked with no geographic bias, 40% straight
        // from the transit clique.
        const double m = std::min(cfg.multihoming_mean, 4.0);
        const double p_extra = m / (1.0 + m);
        while (extra_providers < 4 && rng.chance(p_extra)) ++extra_providers;
        for (int i = 0; i < extra_providers; ++i) {
          if (n_regional > 0 && rng.chance(0.6)) {
            push_provider(n_transit +
                          static_cast<AsId>(rng.below(n_regional)));
          } else {
            push_provider(static_cast<AsId>(rng.below(n_transit)));
          }
        }
        break;
      }
    }
  }

  // Flags ---------------------------------------------------------------
  {
    Rng rng{key(kFlagTag, v)};
    switch (tier) {
      case AsTier::kTransit:
        p.node.multipath = rng.chance(0.5);
        break;
      case AsTier::kRegional:
        p.node.load_balanced = rng.chance(gen::kLoadBalancedRate);
        p.node.multipath =
            p.node.load_balanced ||
            rng.chance(std::min(
                0.85, 0.25 + 0.06 * static_cast<double>(
                                        p.prefix_lens.size())));
        break;
      case AsTier::kStub:
        // More providers and more prefixes -> more likely to see several
        // sites (Figure 7); couples the multihoming knob to multipath.
        p.node.multipath = rng.chance(std::min(
            0.85, 0.12 + 0.30 * extra_providers +
                      0.05 * static_cast<double>(p.prefix_lens.size())));
        break;
    }
  }
  return p;
}

ScaleGenerator::ScaleGenerator(const ScaleConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

ScaleGenerator::~ScaleGenerator() = default;

std::uint32_t ScaleGenerator::as_count() const { return impl_->n_total; }

std::uint32_t ScaleGenerator::shard_count() const {
  return (impl_->n_total + impl_->cfg.shard_size - 1) / impl_->cfg.shard_size;
}

AsPlan ScaleGenerator::plan_as(AsId v) const { return impl_->plan_as(v); }

std::vector<AsPlan> ScaleGenerator::plan_shard(std::uint32_t shard) const {
  const std::uint64_t lo =
      static_cast<std::uint64_t>(shard) * impl_->cfg.shard_size;
  const std::uint64_t hi =
      std::min<std::uint64_t>(lo + impl_->cfg.shard_size, impl_->n_total);
  std::vector<AsPlan> out;
  out.reserve(hi > lo ? hi - lo : 0);
  for (std::uint64_t v = lo; v < hi; ++v)
    out.push_back(impl_->plan_as(static_cast<AsId>(v)));
  return out;
}

Topology ScaleGenerator::generate() const {
  const Impl& im = *impl_;
  const std::uint32_t n = im.n_total;
  const unsigned threads = util::resolve_threads(im.cfg.threads);
  const std::uint32_t shards = shard_count();

  // Phase A: plan every AS, in parallel over shards. Plans are pure
  // per-AS functions, so any partition of the id space yields identical
  // results.
  std::vector<AsPlan> plans(n);
  util::parallel_for(shards, threads, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      const std::uint64_t lo =
          static_cast<std::uint64_t>(s) * im.cfg.shard_size;
      const std::uint64_t hi =
          std::min<std::uint64_t>(lo + im.cfg.shard_size, n);
      for (std::uint64_t v = lo; v < hi; ++v)
        plans[v] = im.plan_as(static_cast<AsId>(v));
    }
  });

  // Phase B: stitch nodes and edges sequentially in id order. Every
  // planned edge targets a lower id, so both endpoints exist when the
  // initiator's plan is applied, and the global edge order is canonical.
  Topology topo;
  for (std::uint32_t v = 0; v < n; ++v)
    topo.add_as(std::move(plans[v].node));
  for (std::uint32_t v = 0; v < n; ++v)
    for (const PlannedEdge& e : plans[v].edges)
      topo.link(v, e.local_pop, e.peer, e.remote_pop, e.rel);

  // Phase C: address allocation — sequential but arithmetic-only (the
  // allocator cursor is the only cross-AS state and it sees no RNG).
  struct Assigned {
    std::uint32_t slot;       // index into blocks_
    std::uint32_t base;       // first /24 index of the prefix
    std::uint32_t count;      // /24s under the prefix
    std::uint32_t prefix_index;
  };
  gen::BlockAllocator allocator;
  std::vector<Assigned> assigned;
  std::vector<std::uint32_t> as_assigned_first(n + 1, 0);
  std::uint64_t cursor = 0;
  std::uint32_t min_block = 0xffffffff, max_block = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    as_assigned_first[v] = static_cast<std::uint32_t>(assigned.size());
    AsNode& node = topo.as_mutable(v);
    node.first_block = static_cast<std::uint32_t>(cursor);
    node.block_count = plans[v].block_demand;
    for (const std::uint8_t len : plans[v].prefix_lens) {
      const net::Prefix prefix = allocator.allocate(len);
      const std::uint32_t prefix_index = topo.announce(v, prefix);
      const auto count = static_cast<std::uint32_t>(prefix.block24_count());
      const std::uint32_t base = prefix.base().value() >> 8;
      assigned.push_back(Assigned{static_cast<std::uint32_t>(cursor), base,
                                  count, prefix_index});
      min_block = std::min(min_block, base);
      max_block = std::max(max_block, base + count - 1);
      cursor += count;
    }
  }
  as_assigned_first[n] = static_cast<std::uint32_t>(assigned.size());

  // Phase D: materialize blocks + geo records in parallel. Per-block
  // decisions are stateless hashes of the block index, and each worker
  // writes a disjoint pre-sized slice, so the result is independent of
  // the partition (and TSan-clean).
  topo.begin_bulk_blocks(cursor);
  if (cursor > 0) {
    topo.geodb_mutable().prepare_span(net::Block24{min_block},
                                      net::Block24{max_block});
  }
  const auto centers = geo::world_centers();
  util::parallel_for(shards, threads, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      const std::uint64_t lo =
          static_cast<std::uint64_t>(s) * im.cfg.shard_size;
      const std::uint64_t hi =
          std::min<std::uint64_t>(lo + im.cfg.shard_size, n);
      for (std::uint64_t v = lo; v < hi; ++v) {
        const AsNode& node = topo.as_at(static_cast<AsId>(v));
        const auto pop_count =
            static_cast<std::uint64_t>(node.pops.size());
        for (std::uint32_t a = as_assigned_first[v];
             a < as_assigned_first[v + 1]; ++a) {
          const Assigned& pfx = assigned[a];
          for (std::uint32_t i = 0; i < pfx.count; ++i) {
            const net::Block24 block{pfx.base + i};
            const std::uint64_t h = im.key(kBlockTag, block.index());
            // Chunked PoP assignment with a 5% scatter, as in the
            // sequential generator — but keyed by block identity.
            auto pop = static_cast<std::uint16_t>(
                static_cast<std::uint64_t>(i) * pop_count / pfx.count);
            if (pop_count > 1 && to_unit(h) < 0.05)
              pop = static_cast<std::uint16_t>(mix64(h) % pop_count);
            topo.set_block(pfx.slot + i,
                           BlockInfo{block, static_cast<AsId>(v), pop,
                                     pfx.prefix_index});
            const std::uint64_t g = im.key(kGeoTag, block.index());
            if (to_unit(g) >= gen::kUngeolocatableRate) {
              const Pop& at = node.pops[pop];
              const PopulationCenter& c = centers[at.center_id];
              Rng jitter_rng{hash_combine(g, 1)};
              geo::GeoRecord rec;
              rec.location = gen::jitter(at.location, c.scatter_deg,
                                         jitter_rng);
              rec.center_id = at.center_id;
              rec.country[0] = c.country[0];
              rec.country[1] = c.country[1];
              rec.country[2] = '\0';
              rec.continent = c.continent;
              topo.geodb_mutable().set(block, rec);
            }
          }
        }
      }
    }
  });
  topo.geodb_mutable().recount();
  topo.seal();
  return topo;
}

Topology generate_scale_topology(const ScaleConfig& config) {
  return ScaleGenerator{config}.generate();
}

}  // namespace vp::topology
