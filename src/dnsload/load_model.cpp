#include "dnsload/load_model.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/rng.hpp"

namespace vp::dnsload {

double country_volume_multiplier(LoadProfile profile,
                                 std::string_view country) {
  if (profile == LoadProfile::kRootLike) {
    // NAT-dense regions put many users behind few blocks (§5.4: India's
    // load exceeds its block share); ICMP-filtering regions still query.
    if (country == "IN") return 4.0;
    if (country == "KR") return 3.5;
    if (country == "CN") return 3.0;
    if (country == "ID" || country == "PH" || country == "VN") return 2.2;
    // Carrier-grade NAT is ubiquitous across South America too.
    if (country == "BR" || country == "AR") return 3.0;
    if (country == "JP") return 1.5;
    return 1.0;
  }
  // .nl-like: overwhelmingly Dutch/European clients, some US, thin tail.
  if (country == "NL") return 400.0;
  if (country == "DE" || country == "GB" || country == "FR" ||
      country == "BE" || country == "DK" || country == "SE" ||
      country == "PL" || country == "ES" || country == "IT" ||
      country == "CZ" || country == "AT" || country == "CH" ||
      country == "IE" || country == "PT" || country == "FI" ||
      country == "GR") {
    return 40.0;
  }
  if (country == "US" || country == "CA") return 6.0;
  return 1.0;
}

LoadModel::LoadModel(const topology::Topology& topo,
                     const sim::ResponsivenessModel& responsiveness,
                     const LoadConfig& config)
    : topo_(&topo), config_(config) {
  const std::uint64_t membership_seed =
      config.membership_seed != 0 ? config.membership_seed : config.seed;
  double raw_total = 0.0;
  for (const topology::BlockInfo& info : topo.blocks()) {
    const std::uint64_t h = util::hash_combine(
        util::hash_combine(membership_seed, 0xd05), info.block.index());
    const bool responsive = responsiveness.ever_responds(info.block);
    const double p =
        kQueryingRateResponsive * (responsive ? 1.0 : kNonresponsiveFactor);
    if (util::to_unit(h) >= p) continue;

    util::Rng rng{util::hash_combine(
        util::hash_combine(config.seed, h), 0x10ad)};
    double volume = rng.pareto(1.0, kParetoAlpha);
    if (rng.chance(kHotspotRate)) volume *= kHotspotMultiplier;
    if (!responsive) volume *= kNonresponsiveVolumeMultiplier;
    // The record is a temporary: keep the country code itself, not a
    // view into it.
    const geo::GeoRecord record =
        topo.geodb().lookup(info.block).value_or(geo::GeoRecord{});
    // Stash per-block country multiplier lookup via geodb; blocks without
    // geolocation keep multiplier 1.
    volume *= country_volume_multiplier(config.profile,
                                        std::string_view{record.country, 2});
    volume = std::min(volume, kMaxBlockMultiple);

    BlockLoad load;
    load.block = info.block;
    load.daily_queries = volume;
    load.good_fraction = static_cast<float>(
        std::clamp(rng.normal(kGoodReplyMean, 0.15), 0.02, 0.98));
    raw_total += volume;
    blocks_.push_back(load);
  }
  // Normalize so the mean per-block volume is kMeanDailyPerBlock.
  const double target_total =
      kMeanDailyPerBlock * static_cast<double>(blocks_.size());
  const double factor = raw_total > 0 ? target_total / raw_total : 0.0;
  index_.reserve(blocks_.size() * 2);
  for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
    blocks_[i].daily_queries *= factor;
    total_daily_ += blocks_[i].daily_queries;
    total_good_ += blocks_[i].daily_queries * blocks_[i].good_fraction;
    index_.emplace(blocks_[i].block, i);
  }
}

double LoadModel::daily_queries(net::Block24 block) const {
  const auto it = index_.find(block);
  return it == index_.end() ? 0.0 : blocks_[it->second].daily_queries;
}

double LoadModel::hourly_weight(double lon_degrees, int hour_utc) {
  // Peak around 15:00 local time, trough before dawn; weights sum to 1
  // over the day because the sinusoid integrates to zero.
  const double local_hour =
      std::fmod(hour_utc + lon_degrees / 15.0 + 48.0, 24.0);
  const double phase =
      2.0 * std::numbers::pi * (local_hour - 15.0) / 24.0;
  return (1.0 + 0.6 * std::cos(phase)) / 24.0;
}

}  // namespace vp::dnsload
