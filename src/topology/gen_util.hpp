// Building blocks shared by the two topology generators: the sequential
// paper-replica generator (generator.cpp) and the sharded deterministic
// ScaleGenerator (scale_generator.cpp).
//
// Everything here is either pure arithmetic (BlockAllocator) or draws
// only from a caller-supplied Rng, so the helpers are usable from
// per-entity substreams without hidden shared state.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/world.hpp"
#include "topology/as_node.hpp"
#include "util/rng.hpp"

namespace vp::topology::gen {

/// Fraction of blocks deliberately left out of the geolocation db
/// (mirrors the 678 unlocatable blocks of Table 4).
inline constexpr double kUngeolocatableRate = 0.0002;

/// Fraction of regional ASes with load-balanced multipath that sprays
/// across ties (candidate catchment flippers beyond the named giants).
inline constexpr double kLoadBalancedRate = 0.02;

// ---------------------------------------------------------------------------
// Address space allocation
// ---------------------------------------------------------------------------

/// Hands out aligned runs of /24 blocks, skipping reserved ranges.
class BlockAllocator {
 public:
  /// Allocates an aligned prefix of the given length (<= 24) and returns it.
  net::Prefix allocate(std::uint8_t length) {
    assert(length <= 24);
    const std::uint32_t count = 1u << (24 - length);
    std::uint32_t base = (next_ + count - 1) & ~(count - 1);  // align up
    base = skip_reserved(base, count);
    next_ = base + count;
    return net::Prefix{net::Ipv4Address{base << 8}, length};
  }

 private:
  // Reserved /8s we never allocate from: 0, 10, 127, and 224+ (multicast).
  static bool reserved(std::uint32_t block_index) {
    const std::uint32_t octet = block_index >> 16;
    return octet == 0 || octet == 10 || octet == 127 || octet >= 224;
  }

  static std::uint32_t skip_reserved(std::uint32_t base, std::uint32_t count) {
    while (reserved(base) || reserved(base + count - 1)) {
      // Jump to the start of the next /8 and realign.
      base = ((base >> 16) + 1) << 16;
      base = (base + count - 1) & ~(count - 1);
    }
    return base;
  }

  static constexpr std::uint32_t kFirstBlock = 1u << 16;  // 1.0.0.0
  std::uint32_t next_ = kFirstBlock;
};

// ---------------------------------------------------------------------------
// Center sampling helpers
// ---------------------------------------------------------------------------

/// Weighted sampler over population centers.
class CenterSampler {
 public:
  explicit CenterSampler(double geo::PopulationCenter::* weight) {
    const auto centers = geo::world_centers();
    cumulative_.reserve(centers.size());
    double acc = 0.0;
    for (const auto& c : centers) {
      acc += c.*weight;
      cumulative_.push_back(acc);
    }
  }

  std::uint16_t sample(util::Rng& rng) const {
    const double x = rng.uniform() * cumulative_.back();
    const auto it =
        std::lower_bound(cumulative_.begin(), cumulative_.end(), x);
    return static_cast<std::uint16_t>(it - cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

/// Samples `k` distinct centers.
inline std::vector<std::uint16_t> sample_distinct(const CenterSampler& sampler,
                                                  util::Rng& rng,
                                                  std::size_t k) {
  std::vector<std::uint16_t> out;
  std::size_t guard = 0;
  while (out.size() < k && guard++ < k * 40) {
    const std::uint16_t c = sampler.sample(rng);
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  return out;
}

inline geo::LatLon jitter(geo::LatLon base, double stddev_deg,
                          util::Rng& rng) {
  geo::LatLon out;
  out.lat = std::clamp(base.lat + rng.normal(0.0, stddev_deg), -89.0, 89.0);
  double lon = base.lon + rng.normal(0.0, stddev_deg);
  while (lon < -180.0) lon += 360.0;
  while (lon >= 180.0) lon -= 360.0;
  out.lon = lon;
  return out;
}

inline std::vector<Pop> make_pops(std::span<const std::uint16_t> center_ids) {
  const auto centers = geo::world_centers();
  std::vector<Pop> pops;
  pops.reserve(center_ids.size());
  for (const std::uint16_t id : center_ids)
    pops.push_back(Pop{id, centers[id].location});
  return pops;
}

}  // namespace vp::topology::gen
