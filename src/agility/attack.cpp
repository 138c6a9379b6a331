#include "agility/attack.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "geo/world.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace vp::agility {

namespace {

/// Stateless per-block uniform draw for a named substream of the attack.
double block_unit(std::uint64_t seed, std::uint64_t stream,
                  std::uint32_t block_index) {
  return util::to_unit(
      util::hash_combine(util::hash_combine(seed, stream), block_index));
}

/// Bounded Pareto draw from a unit sample: heavy-tailed per-source
/// volume without letting one source carry the whole attack.
double pareto_weight(double u, double alpha, double cap) {
  return std::min(cap, 1.0 / std::pow(1.0 - u, 1.0 / alpha));
}

}  // namespace

std::string_view to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::kPolarized: return "polarized";
    case AttackKind::kFlashCrowd: return "flash-crowd";
    case AttackKind::kSpoofedFlood: return "spoofed-flood";
    case AttackKind::kVolumetric: return "volumetric";
  }
  return "?";
}

std::optional<AttackKind> attack_kind_from_string(std::string_view name) {
  if (name == "polarized") return AttackKind::kPolarized;
  if (name == "flash" || name == "flash-crowd") return AttackKind::kFlashCrowd;
  if (name == "spoofed" || name == "spoofed-flood")
    return AttackKind::kSpoofedFlood;
  if (name == "volumetric") return AttackKind::kVolumetric;
  return std::nullopt;
}

anycast::SiteId resolve_target(const AttackSpec& spec,
                               const anycast::Deployment& deployment) {
  if (spec.kind == AttackKind::kFlashCrowd ||
      spec.kind == AttackKind::kSpoofedFlood) {
    return anycast::kUnknownSite;
  }
  std::vector<anycast::SiteId> enabled;
  for (std::size_t s = 0; s < deployment.sites.size(); ++s)
    if (deployment.sites[s].enabled)
      enabled.push_back(static_cast<anycast::SiteId>(s));
  if (enabled.empty()) return anycast::kUnknownSite;
  if (spec.target_site >= 0 &&
      static_cast<std::size_t>(spec.target_site) < deployment.sites.size() &&
      deployment.sites[static_cast<std::size_t>(spec.target_site)].enabled) {
    return spec.target_site;
  }
  return enabled[util::hash_combine(spec.seed, 0x7a26) % enabled.size()];
}

OfferedLoad offered_load(const topology::Topology& topo,
                         const dnsload::LoadModel& base,
                         const bgp::RoutingTable& baseline_routes,
                         const AttackSpec& spec) {
  OfferedLoad out;
  out.resolved_target = resolve_target(spec, baseline_routes.deployment());

  // Flash crowds surge a geographic region around a seeded world center.
  geo::LatLon epicenter{};
  if (spec.kind == AttackKind::kFlashCrowd) {
    const auto centers = geo::world_centers();
    epicenter = centers[util::hash_combine(spec.seed, 0xf1a5) %
                        centers.size()]
                    .location;
  }

  // Pass 1: per-block legitimate volume and raw attack weight. Weights
  // are relative; pass 2 normalizes the attack to magnitude x baseline.
  // Everything is a stateless hash of (seed, stream, block index), so
  // the result is independent of evaluation order.
  struct Touched {
    std::uint32_t row;
    double legit;
    double weight;
  };
  std::vector<Touched> touched;
  touched.reserve(base.blocks().size());
  double weight_sum = 0.0;
  // Volumetric attacks pick the source_count lowest-hashing blocks of
  // the target catchment — a deterministic k-of-n sample.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> volumetric_pool;

  // The base's querying blocks are in row order too: one cursor walks
  // them beside the rows.
  const auto blocks = topo.blocks();
  const auto load_rows = base.rows();
  std::size_t next_load = 0;
  for (std::uint32_t row = 0; row < blocks.size(); ++row) {
    const topology::BlockInfo& info = blocks[row];
    double legit = 0.0;
    if (next_load < load_rows.size() && load_rows[next_load] == row)
      legit = base.blocks()[next_load++].daily_queries;
    double weight = 0.0;
    switch (spec.kind) {
      case AttackKind::kPolarized: {
        if (baseline_routes.site_for_block(info) != out.resolved_target)
          break;
        if (block_unit(spec.seed, 0xb07, row) >= kAttackerFraction) break;
        weight = pareto_weight(block_unit(spec.seed, 0xb08, row), 1.5, 200.0);
        break;
      }
      case AttackKind::kFlashCrowd: {
        const auto geo = topo.geo(info.block);
        if (!geo || geo::distance_km(geo->location, epicenter) > spec.radius_km)
          break;
        // Querying blocks surge in proportion to their usual volume;
        // silent blocks join at a fraction of the mean (new eyeballs).
        weight = legit > 0.0 ? legit : 0.2 * dnsload::kMeanDailyPerBlock;
        break;
      }
      case AttackKind::kSpoofedFlood: {
        if (block_unit(spec.seed, 0x5f0, row) >= spec.spoof_fraction) break;
        weight = 0.5 + block_unit(spec.seed, 0x5f1, row);  // thin, even
        break;
      }
      case AttackKind::kVolumetric: {
        if (baseline_routes.site_for_block(info) != out.resolved_target)
          break;
        volumetric_pool.emplace_back(
            util::hash_combine(util::hash_combine(spec.seed, 0x701), row),
            row);
        break;
      }
    }
    if (legit > 0.0 || weight > 0.0) {
      touched.push_back({row, legit, weight});
      weight_sum += weight;
    }
  }

  if (spec.kind == AttackKind::kVolumetric && !volumetric_pool.empty()) {
    const std::size_t k = std::min<std::size_t>(
        std::max<std::uint32_t>(1, spec.source_count),
        volumetric_pool.size());
    std::nth_element(volumetric_pool.begin(), volumetric_pool.begin() + (k - 1),
                     volumetric_pool.end());
    volumetric_pool.resize(k);
    std::sort(volumetric_pool.begin(), volumetric_pool.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    // Merge the sources into `touched` (both are row-ascending).
    std::vector<Touched> merged;
    merged.reserve(touched.size() + k);
    std::size_t ti = 0;
    for (const auto& [hash, row] : volumetric_pool) {
      while (ti < touched.size() && touched[ti].row < row)
        merged.push_back(touched[ti++]);
      const double w =
          pareto_weight(util::to_unit(util::mix64(hash)), 0.8, 10'000.0);
      if (ti < touched.size() && touched[ti].row == row) {
        Touched t = touched[ti++];
        t.weight = w;
        merged.push_back(t);
      } else {
        merged.push_back({row, 0.0, w});
      }
      weight_sum += w;
    }
    while (ti < touched.size()) merged.push_back(touched[ti++]);
    touched = std::move(merged);
  }

  // Pass 2: normalize and fix to integer milli-queries. llround is the
  // only double->int step, applied once per block in row order.
  const double attack_total = spec.magnitude * base.total_daily_queries();
  const double factor = weight_sum > 0.0 ? attack_total / weight_sum : 0.0;
  out.rows.reserve(touched.size());
  out.milliq.reserve(touched.size());
  for (const Touched& t : touched) {
    const auto legit_milli =
        static_cast<std::uint64_t>(std::llround(t.legit * 1000.0));
    const auto attack_milli =
        static_cast<std::uint64_t>(std::llround(t.weight * factor * 1000.0));
    const std::uint64_t total = legit_milli + attack_milli;
    if (total == 0) continue;
    out.rows.push_back(t.row);
    out.milliq.push_back(total);
    out.legit_milliq += legit_milli;
    out.attack_milliq += attack_milli;
    if (attack_milli > 0) ++out.attack_blocks;
  }
  out.total_milliq = out.legit_milliq + out.attack_milliq;
  static std::atomic<std::uint64_t> next_memo_id{1};
  out.memo_id = next_memo_id.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::string describe(const AttackSpec& spec,
                     const anycast::Deployment& deployment) {
  std::string text{to_string(spec.kind)};
  text += " x" + util::fixed(spec.magnitude, 1);
  const anycast::SiteId target = resolve_target(spec, deployment);
  if (target >= 0 &&
      static_cast<std::size_t>(target) < deployment.sites.size()) {
    text += " @" + deployment.sites[static_cast<std::size_t>(target)].code;
  }
  text += " (seed " + std::to_string(spec.seed) + ")";
  return text;
}

}  // namespace vp::agility
