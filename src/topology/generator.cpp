#include "topology/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "topology/gen_util.hpp"
#include "util/rng.hpp"

namespace vp::topology {
namespace {

using geo::PopulationCenter;
using util::Rng;

using gen::BlockAllocator;
using gen::CenterSampler;
using gen::jitter;
using gen::make_pops;
using gen::sample_distinct;

/// Number of tier-1 transit ASes (fully meshed peer clique).
constexpr std::uint32_t kTransitCount = 12;

/// Closest pair of PoPs between two ASes, for link attachment points.
std::pair<std::uint16_t, std::uint16_t> closest_pops(const AsNode& a,
                                                     const AsNode& b) {
  double best = std::numeric_limits<double>::max();
  std::pair<std::uint16_t, std::uint16_t> out{0, 0};
  for (std::size_t i = 0; i < a.pops.size(); ++i) {
    for (std::size_t j = 0; j < b.pops.size(); ++j) {
      const double d =
          geo::distance_km(a.pops[i].location, b.pops[j].location);
      if (d < best) {
        best = d;
        out = {static_cast<std::uint16_t>(i), static_cast<std::uint16_t>(j)};
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Prefix plans per tier
// ---------------------------------------------------------------------------

/// Prefix lengths an AS of a given tier will announce. Heavy-tailed counts
/// drive Figure 7 (ASes announcing more prefixes see more sites); the
/// length spread drives Figure 8. `shift` lengthens every prefix when the
/// target Internet is smaller than the default 120k blocks, so giants and
/// transits shrink proportionally instead of crowding everyone out.
std::vector<std::uint8_t> plan_prefixes(AsTier tier, Rng& rng, int shift) {
  std::vector<std::uint8_t> lens;
  const auto push = [&](int len) {
    lens.push_back(static_cast<std::uint8_t>(std::min(len + shift, 24)));
  };
  switch (tier) {
    case AsTier::kStub: {
      const int n = 1 + static_cast<int>(rng.pareto(0.7, 1.6));
      for (int i = 0; i < std::min(n, 4); ++i) {
        const double x = rng.uniform();
        // Stubs are already tiny; they do not shrink with scale.
        lens.push_back(x < 0.50 ? 24 : x < 0.75 ? 23 : x < 0.90 ? 22
                       : x < 0.97 ? 21 : 20);
      }
      break;
    }
    case AsTier::kRegional: {
      push(static_cast<int>(rng.range(16, 19)));
      if (rng.chance(0.5)) push(static_cast<int>(rng.range(17, 20)));
      const int extra =
          std::min(static_cast<int>(rng.pareto(1.0, 1.1)), 24);
      for (int i = 0; i < extra; ++i)
        push(static_cast<int>(rng.range(20, 24)));
      break;
    }
    case AsTier::kTransit: {
      push(static_cast<int>(rng.range(13, 15)));
      push(static_cast<int>(rng.range(15, 17)));
      const int extra =
          8 + std::min(static_cast<int>(rng.pareto(2.0, 1.0)), 48);
      for (int i = 0; i < extra; ++i)
        push(static_cast<int>(rng.range(18, 24)));
      break;
    }
  }
  return lens;
}

// ---------------------------------------------------------------------------
// Special (named) ASes
// ---------------------------------------------------------------------------

struct SpecialAsSpec {
  std::uint32_t asn;
  const char* name;
  AsTier tier;
  std::vector<const char*> centers;
  std::vector<std::uint8_t> prefix_lens;
  bool load_balanced = false;
  double icmp_response_scale = 1.0;
  int provider_count = 2;
  double flap_scale = 1.0;
};

std::vector<SpecialAsSpec> special_specs() {
  return {
      // Table 3 upstreams -------------------------------------------------
      // B-Root's LAX upstream. Well connected (USC/ISI heritage): many
      // transit providers, so most of the transit clique hears the LAX
      // announcement as a short customer route — the reason ~80% of
      // blocks go to LAX in the paper's Table 6.
      {226, "LOS-NETTOS", AsTier::kRegional, {"Los Angeles", "Washington"},
       {16, 19, 22}, false, 1.0, 10},
      {20080, "AMPATH", AsTier::kRegional,
       {"Miami", "Sao Paulo", "Buenos Aires"},
       {16, 18, 20}, false, 1.0, 2},
      {20473, "VULTR", AsTier::kTransit,
       {"Sydney", "Paris", "London", "Tokyo", "New York", "Amsterdam",
        "Singapore"},
       {15, 17, 19, 21, 22}, false, 1.0, 2},
      {2500, "WIDE", AsTier::kRegional, {"Tokyo"}, {17, 20}, false, 1.0, 1},
      {1103, "SURFNET", AsTier::kRegional, {"Amsterdam", "Enschede"},
       {16, 19}, false, 1.0, 2},
      {1972, "USC-ISI-E", AsTier::kRegional, {"Washington"}, {18, 21}, false,
       1.0, 2},
      {1251, "ANSP", AsTier::kRegional, {"Sao Paulo", "Rio de Janeiro"},
       {17, 20}, false, 1.0, 2},
      {39839, "DK-HOSTMASTER", AsTier::kRegional, {"Copenhagen"}, {19, 22},
       false, 1.0, 2},
      // Table 7 flip-heavy giants -----------------------------------------
      {4134, "CHINANET", AsTier::kRegional,
       {"Beijing", "Shanghai", "Guangzhou", "Chengdu"},
       {11, 13, 13, 15, 16, 17, 18, 18, 19, 20, 20, 21, 22, 23, 24},
       true, 0.85, 3, 2.5},
      {7922, "COMCAST", AsTier::kRegional,
       {"New York", "Chicago", "Dallas", "Seattle", "Miami"},
       {12, 14, 16, 17, 19, 20, 21, 22}, true, 1.0, 3, 0.5},
      {6983, "ITCDELTA", AsTier::kRegional, {"Washington", "Miami"},
       {15, 18, 20, 22}, true, 1.0, 2, 0.5},
      {6739, "ONO-AS", AsTier::kRegional, {"Madrid"}, {15, 18, 21}, true,
       1.0, 2, 0.6},
      {37963, "ALIBABA", AsTier::kRegional, {"Shanghai", "Beijing"},
       {14, 17, 19, 21}, true, 0.9, 2, 0.5},
      // ICMP-culture outliers (drive the unmappable hotspots of Fig. 4a) --
      {4766, "KORNET", AsTier::kRegional, {"Seoul"},
       {12, 14, 16, 18, 20}, false, 0.18, 3},
      {4713, "NTT-OCN", AsTier::kRegional, {"Tokyo", "Osaka"},
       {13, 15, 17, 20}, false, 0.55, 3},
      {9829, "BSNL-IN", AsTier::kRegional, {"Mumbai", "Delhi", "Bangalore"},
       {13, 15, 17, 19, 21}, false, 0.7, 2},
  };
}

// ---------------------------------------------------------------------------
// Generator proper
// ---------------------------------------------------------------------------

class Generator {
 public:
  explicit Generator(const TopologyConfig& config)
      : config_(config),
        rng_(config.seed),
        block_sampler_(&PopulationCenter::block_weight) {
    // Shrink the big players proportionally on smaller-than-default
    // Internets so regionals and stubs keep their share of the space.
    const double ratio =
        120'000.0 / std::max<double>(config.target_blocks, 1.0);
    if (ratio > 1.0)
      length_shift_ = static_cast<int>(std::ceil(std::log2(ratio)));
  }

  Topology run() {
    make_transits();
    make_specials();
    make_regionals();
    make_stubs();
    topo_.seal();
    return std::move(topo_);
  }

 private:
  // Assigns prefixes + blocks to an AS, spreading blocks over its PoPs.
  void allocate_addresses(AsId id, std::span<const std::uint8_t> lens) {
    AsNode& node = topo_.as_mutable(id);
    const auto centers = geo::world_centers();
    for (const std::uint8_t len : lens) {
      const net::Prefix prefix = allocator_.allocate(len);
      const std::uint32_t prefix_index = topo_.announce(id, prefix);
      const std::uint64_t count = prefix.block24_count();
      for (std::uint64_t i = 0; i < count; ++i) {
        const net::Block24 block{(prefix.base().value() >> 8) +
                                 static_cast<std::uint32_t>(i)};
        // Chunked PoP assignment: consecutive blocks share a PoP, with a
        // 5% chance of being homed elsewhere (address plans are untidy).
        std::uint16_t pop = static_cast<std::uint16_t>(
            i * node.pops.size() / std::max<std::uint64_t>(count, 1));
        if (node.pops.size() > 1 && rng_.chance(0.05))
          pop = static_cast<std::uint16_t>(rng_.below(node.pops.size()));
        topo_.add_block(block, id, pop, prefix_index);
        if (!rng_.chance(gen::kUngeolocatableRate)) {
          const Pop& p = node.pops[pop];
          const PopulationCenter& c = centers[p.center_id];
          geo::GeoRecord rec;
          rec.location = jitter(p.location, c.scatter_deg, rng_);
          rec.center_id = p.center_id;
          rec.country[0] = c.country[0];
          rec.country[1] = c.country[1];
          rec.country[2] = '\0';
          rec.continent = c.continent;
          topo_.set_geo(
              static_cast<std::uint32_t>(topo_.block_count() - 1), rec);
        }
      }
    }
  }

  void make_transits() {
    for (std::uint32_t i = 0; i < kTransitCount; ++i) {
      static constexpr std::uint32_t kTier1Asns[] = {
          174,  701,  1299, 2914, 3257, 3320, 3356, 3491,
          5511, 6453, 6762, 7018, 6939, 1239, 3549, 2828};
      AsNode node;
      node.asn = AsNumber{i < std::size(kTier1Asns) ? kTier1Asns[i]
                                                    : 90000 + i};
      node.tier = AsTier::kTransit;
      node.name = "TRANSIT-" + std::to_string(node.asn.value);
      node.multipath = rng_.chance(0.5);
      node.pops = make_pops(sample_distinct(
          block_sampler_, rng_, 14 + rng_.below(9)));
      const AsId id = topo_.add_as(std::move(node));
      transits_.push_back(id);
      allocate_addresses(id, plan_prefixes(AsTier::kTransit, rng_, length_shift_));
    }
    // Full peer mesh among transits.
    for (std::size_t i = 0; i < transits_.size(); ++i) {
      for (std::size_t j = i + 1; j < transits_.size(); ++j) {
        const auto [pi, pj] = closest_pops(topo_.as_at(transits_[i]),
                                           topo_.as_at(transits_[j]));
        topo_.link(transits_[i], pi, transits_[j], pj, Relationship::kPeer);
      }
    }
  }

  void connect_to_providers(AsId id, int provider_count,
                            std::span<const AsId> candidates) {
    const AsNode& node = topo_.as_at(id);
    // Rank candidates by distance of their closest PoP pair; pick among the
    // nearest few so that geography shapes the graph but doesn't fully
    // determine it.
    std::vector<std::pair<double, AsId>> ranked;
    for (const AsId cand : candidates) {
      if (cand == id) continue;
      const auto [pa, pb] = closest_pops(node, topo_.as_at(cand));
      ranked.emplace_back(
          geo::distance_km(node.pops[pa].location,
                           topo_.as_at(cand).pops[pb].location),
          cand);
    }
    std::sort(ranked.begin(), ranked.end());
    // First pass: take each nearest candidate with 70% probability so the
    // graph is geography-shaped but not geography-determined. Second
    // pass: top up to the requested count so well-connected ASes (like
    // B-Root's LAX upstream) reliably get their full provider set.
    std::vector<bool> taken(ranked.size(), false);
    int linked = 0;
    for (std::size_t i = 0; i < ranked.size() && linked < provider_count;
         ++i) {
      if (!rng_.chance(0.7)) continue;
      taken[i] = true;
      const AsId provider = ranked[i].second;
      const auto [pa, pb] = closest_pops(node, topo_.as_at(provider));
      topo_.link(id, pa, provider, pb, Relationship::kProvider);
      ++linked;
    }
    for (std::size_t i = 0; i < ranked.size() && linked < provider_count;
         ++i) {
      if (taken[i]) continue;
      const AsId provider = ranked[i].second;
      const auto [pa, pb] = closest_pops(node, topo_.as_at(provider));
      topo_.link(id, pa, provider, pb, Relationship::kProvider);
      ++linked;
    }
  }

  void make_specials() {
    for (const SpecialAsSpec& spec : special_specs()) {
      AsNode node;
      node.asn = AsNumber{spec.asn};
      node.tier = spec.tier;
      node.name = spec.name;
      node.load_balanced = spec.load_balanced;
      node.flap_scale = spec.flap_scale;
      node.multipath = spec.load_balanced || rng_.chance(0.5);
      node.icmp_response_scale = spec.icmp_response_scale;
      std::vector<std::uint16_t> centers;
      centers.reserve(spec.centers.size());
      for (const char* name : spec.centers)
        centers.push_back(center_by_name(name));
      node.pops = make_pops(centers);
      const AsId id = topo_.add_as(std::move(node));
      specials_.push_back(id);
      if (spec.tier == AsTier::kTransit) transit_like_.push_back(id);
      std::vector<std::uint8_t> shifted_lens;
      shifted_lens.reserve(spec.prefix_lens.size());
      for (const std::uint8_t len : spec.prefix_lens) {
        shifted_lens.push_back(static_cast<std::uint8_t>(
            std::min<int>(len + length_shift_, 24)));
      }
      allocate_addresses(id, shifted_lens);
      if (spec.asn == 20080) {
        // AMPATH's transit mix is what gives the MIA site a routing
        // identity: two carriers it shares with B-Root's LAX upstream
        // (there, the two announcements tie at customer class and
        // prepending can move traffic), and two exclusive carriers whose
        // whole customer cones stay MIA even at +3 prepending — the
        // paper's "likely customers of MIA's ISP" residue (§6.1).
        const auto p226 = providers_of(topo_.find_as(AsNumber{226}));
        std::vector<AsId> shared(p226.begin(), p226.end());
        std::vector<AsId> exclusive;
        for (const AsId t : transits_)
          if (!p226.contains(t)) exclusive.push_back(t);
        connect_to_providers(id, 2, shared);
        // The exclusive carriers are modest ones (fewest PoPs): AMPATH
        // is an academic exchange, not a tier-1 customer magnet.
        std::sort(exclusive.begin(), exclusive.end(), [&](AsId a, AsId b) {
          return topo_.as_at(a).pops.size() < topo_.as_at(b).pops.size();
        });
        if (!exclusive.empty()) {
          const auto [pa, pb] =
              closest_pops(topo_.as_at(id), topo_.as_at(exclusive.front()));
          topo_.link(id, pa, exclusive.front(), pb,
                     Relationship::kProvider);
        }
      } else {
        connect_to_providers(id, spec.provider_count, transits_);
      }
      // Load-balanced giants keep several equally good upstreams: add one
      // more provider at a *distant* PoP so tied routes to different sites
      // are plausible.
      if (spec.load_balanced) {
        std::vector<AsId> shuffled = transits_;
        for (std::size_t i = shuffled.size(); i > 1; --i)
          std::swap(shuffled[i - 1], shuffled[rng_.below(i)]);
        connect_to_providers(id, 1, shuffled);
      }
    }
    ampath_ = topo_.find_as(AsNumber{20080});
    // The paper observes most of China choosing the MIA site (Figure 2b)
    // — a pure routing-policy artifact. Mirror it: Chinanet buys transit
    // from one of AMPATH's providers and sets local-pref to favor routes
    // learned over that link (a standard TE community).
    const AsId chinanet = topo_.find_as(AsNumber{4134});
    if (chinanet != kNoAs && ampath_ != kNoAs) {
      // Use an AMPATH-exclusive carrier (one that is NOT also a transit
      // of the LAX upstream) so its customer cone deterministically
      // reaches MIA.
      // Two equally-preferred carriers: Chinanet's traffic engineering
      // pins routes learned over both links above everything else, and
      // load-balances between them. For B-Root the AMPATH-exclusive
      // carrier's MIA route dominates the pair (most of China -> MIA,
      // Figure 2b); for multi-site deployments the pair frequently
      // disagrees, which is what makes Chinanet the paper's top flipping
      // AS (Table 7).
      auto ampath_providers = providers_of(ampath_);
      const auto p226 = providers_of(topo_.find_as(AsNumber{226}));
      std::vector<AsId> preferred;
      for (const AsId t : ampath_providers)
        if (!p226.contains(t)) preferred.push_back(t);  // AMPATH-exclusive
      // ...plus one global carrier from the *other* camp, so the pair
      // routinely disagrees about the best site and the load balancer
      // actually has two different exits to spray across.
      AsId other_camp = kNoAs;
      std::size_t most_pops = 0;
      for (const AsId t : p226) {
        if (topo_.as_at(t).pops.size() > most_pops) {
          most_pops = topo_.as_at(t).pops.size();
          other_camp = t;
        }
      }
      if (other_camp != kNoAs) preferred.push_back(other_camp);
      if (preferred.size() > 2) preferred.resize(2);
      for (const AsId via : preferred) {
        const auto [pa, pb] =
            closest_pops(topo_.as_at(chinanet), topo_.as_at(via));
        topo_.link(chinanet, pa, via, pb, Relationship::kProvider);
        topo_.set_local_pref_bonus(chinanet, via, 1);
      }
    }
  }

  /// The set of ASes `id` buys transit from.
  std::set<AsId> providers_of(AsId id) const {
    std::set<AsId> out;
    if (id == kNoAs) return out;
    for (const Link& l : topo_.as_at(id).links)
      if (l.rel == Relationship::kProvider) out.insert(l.neighbor);
    return out;
  }

  void make_regionals() {
    // Budget: regionals take roughly 30% of the target block count.
    // Regionals take just over half of whatever space the giants,
    // transits, and specials left; stubs fill the remainder.
    const auto used = static_cast<std::uint32_t>(topo_.block_count());
    const std::uint32_t budget =
        config_.target_blocks > used
            ? (config_.target_blocks - used) * 11 / 20
            : 0;
    const auto before = static_cast<std::uint32_t>(topo_.block_count());
    while (topo_.block_count() - before < budget) {
      AsNode node;
      node.asn = AsNumber{next_asn_++};
      node.tier = AsTier::kRegional;
      const std::uint16_t home = block_sampler_.sample(rng_);
      node.name = "REG-" + std::to_string(node.asn.value);
      node.load_balanced = rng_.chance(gen::kLoadBalancedRate);
      // 1-5 PoPs: home plus nearby centers on the same continent.
      std::vector<std::uint16_t> centers{home};
      const auto world = geo::world_centers();
      const std::size_t extra = rng_.below(5);
      std::vector<std::pair<double, std::uint16_t>> near;
      for (std::uint16_t c = 0; c < world.size(); ++c) {
        if (c == home || world[c].continent != world[home].continent)
          continue;
        near.emplace_back(
            geo::distance_km(world[home].location, world[c].location), c);
      }
      std::sort(near.begin(), near.end());
      for (std::size_t i = 0; i < extra && i < near.size(); ++i)
        centers.push_back(near[i].second);
      node.pops = make_pops(centers);
      const AsId id = topo_.add_as(std::move(node));
      regionals_.push_back(id);
      regionals_by_center_[home].push_back(id);
      allocate_addresses(id, plan_prefixes(AsTier::kRegional, rng_, length_shift_));
      // Bigger networks (more announced prefixes) are more likely to run
      // BGP multipath — the Figure 7 trend: more prefixes, more sites.
      {
        AsNode& placed = topo_.as_mutable(id);
        placed.multipath =
            placed.load_balanced ||
            rng_.chance(std::min(0.85, 0.25 + 0.10 * placed.prefix_count));
      }

      // Providers: South-American regionals in the AMPATH footprint prefer
      // AMPATH (the paper's Figure 2b story: AMPATH is well connected in
      // Brazil/Argentina but not on the west coast).
      const auto& home_center = geo::world_centers()[home];
      const bool ampath_zone =
          home_center.continent == geo::Continent::kSouthAmerica &&
          (home_center.country[0] == 'B' ||  // BR
           home_center.country[0] == 'A');   // AR
      if (ampath_zone && ampath_ != kNoAs && rng_.chance(0.8)) {
        const auto [pa, pb] = closest_pops(topo_.as_at(id),
                                           topo_.as_at(ampath_));
        topo_.link(id, pa, ampath_, pb, Relationship::kProvider);
        connect_to_providers(id, static_cast<int>(rng_.below(2)),
                             all_transit_candidates());
      } else if (regionals_.size() > 8 && rng_.chance(0.25)) {
        // Second-tier regional: buys transit from other regionals, adding
        // the AS-path-length diversity that makes prepending shift load
        // gradually rather than all at once (§6.1, Figure 5).
        connect_to_providers(id, 1 + static_cast<int>(rng_.below(2)),
                             regionals_);
        if (rng_.chance(0.4))
          connect_to_providers(id, 1, all_transit_candidates());
      } else {
        connect_to_providers(id, 1 + static_cast<int>(rng_.below(3)),
                             all_transit_candidates());
      }
      // Occasional same-continent regional peering.
      if (regionals_.size() > 4 && rng_.chance(0.3)) {
        const AsId other =
            regionals_[rng_.below(regionals_.size() - 1)];
        if (other != id &&
            topo_.as_at(other).pops[0].center_id != home) {
          const auto [pa, pb] =
              closest_pops(topo_.as_at(id), topo_.as_at(other));
          topo_.link(id, pa, other, pb, Relationship::kPeer);
        }
      }
    }
  }

  std::vector<AsId> all_transit_candidates() const {
    std::vector<AsId> out = transits_;
    out.insert(out.end(), transit_like_.begin(), transit_like_.end());
    return out;
  }

  void make_stubs() {
    while (topo_.block_count() < config_.target_blocks) {
      AsNode node;
      node.asn = AsNumber{next_asn_++};
      node.tier = AsTier::kStub;
      const std::uint16_t home = block_sampler_.sample(rng_);
      node.name = "STUB-" + std::to_string(node.asn.value);
      node.pops = make_pops(std::array{home});
      const AsId id = topo_.add_as(std::move(node));
      allocate_addresses(id, plan_prefixes(AsTier::kStub, rng_, 0));
      {
        AsNode& placed = topo_.as_mutable(id);
        placed.multipath =
            rng_.chance(std::min(0.8, 0.18 + 0.16 * placed.prefix_count));
      }

      // Providers: prefer regionals homed at the same center; fall back to
      // any regional, then transit. A quarter of stubs multihome, and a
      // third of those pick the second provider with no geographic bias —
      // cross-cone multihoming is where path-length comparisons (and thus
      // prepending sensitivity) live.
      const auto it = regionals_by_center_.find(home);
      if (it != regionals_by_center_.end() && !it->second.empty()) {
        connect_to_providers(id, 1, it->second);
      } else if (!regionals_.empty()) {
        connect_to_providers(id, 1, regionals_);
      } else {
        connect_to_providers(id, 1, transits_);
      }
      if (rng_.chance(0.35) && !regionals_.empty()) {
        if (rng_.chance(0.33)) {
          const AsId anywhere = regionals_[rng_.below(regionals_.size())];
          if (anywhere != id) {
            const auto [pa, pb] =
                closest_pops(topo_.as_at(id), topo_.as_at(anywhere));
            topo_.link(id, pa, anywhere, pb, Relationship::kProvider);
          }
        } else {
          connect_to_providers(id, 1, regionals_);
        }
      }
    }
  }

  TopologyConfig config_;
  Rng rng_;
  CenterSampler block_sampler_;
  BlockAllocator allocator_;
  Topology topo_;
  std::vector<AsId> transits_;
  std::vector<AsId> transit_like_;  // e.g. Vultr
  std::vector<AsId> specials_;
  std::vector<AsId> regionals_;
  std::unordered_map<std::uint16_t, std::vector<AsId>> regionals_by_center_;
  AsId ampath_ = kNoAs;
  std::uint32_t next_asn_ = 60000;
  int length_shift_ = 0;
};

}  // namespace

TopologyConfig TopologyConfig::scaled(double factor) {
  TopologyConfig config;
  config.target_blocks =
      static_cast<std::uint32_t>(config.target_blocks * factor);
  return config;
}

std::uint16_t center_by_name(std::string_view name) {
  const auto centers = geo::world_centers();
  for (std::uint16_t i = 0; i < centers.size(); ++i)
    if (centers[i].name == name) return i;
  std::fprintf(stderr, "unknown population center: %.*s\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

Topology generate_topology(const TopologyConfig& config) {
  return Generator{config}.run();
}

}  // namespace vp::topology
