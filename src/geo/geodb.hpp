// Per-block geolocation (the MaxMind-GeoLite2 stand-in, §4) and its
// 2-degree map bins.
//
// The topology generators give each /24 block a GeoRecord as they assign
// it to an AS (Topology::geo() reads it back); analysis code bins them into
// the coverage maps (Figures 2-4) and the regional tables. A small fraction
// of blocks is deliberately left un-geolocatable, mirroring the 678 blocks
// the paper drops (Table 4).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geo/world.hpp"

namespace vp::geo {

/// Geolocation record for one /24 block.
struct GeoRecord {
  LatLon location;
  std::uint16_t center_id = 0;  // index into world_centers()
  char country[3] = {'?', '?', '\0'};
  Continent continent = Continent::kEurope;
};

/// A 2-degree geographic bin, the paper's map resolution ("two-degree
/// geographic bins", Figure 2 caption).
struct GeoBin {
  std::int16_t x = 0;  // floor((lon + 180) / 2), 0..179
  std::int16_t y = 0;  // floor((lat + 90) / 2), 0..89

  static GeoBin of(LatLon loc);
  LatLon center() const;
  constexpr auto operator<=>(const GeoBin&) const = default;
};

/// Accumulates per-bin, per-category counts (category = anycast site id or
/// "unknown"); produces rows for the map benchmarks.
class GeoBinner {
 public:
  explicit GeoBinner(std::size_t category_count)
      : category_count_(category_count) {}

  void add(LatLon loc, std::size_t category, double weight = 1.0);

  struct BinRow {
    GeoBin bin;
    std::vector<double> category_weights;  // indexed by category
    double total = 0.0;
  };

  /// All non-empty bins, sorted by total weight descending.
  std::vector<BinRow> rows() const;

  /// Per-continent aggregation (continent inferred from bin center by
  /// nearest world center).
  std::vector<std::pair<Continent, std::vector<double>>> by_continent() const;

 private:
  struct BinKey {
    std::int32_t packed;
    bool operator==(const BinKey&) const = default;
  };
  struct BinKeyHash {
    std::size_t operator()(const BinKey& k) const noexcept {
      return std::hash<std::int32_t>{}(k.packed);
    }
  };

  std::size_t category_count_;
  std::unordered_map<BinKey, std::vector<double>, BinKeyHash> bins_;
};

}  // namespace vp::geo
