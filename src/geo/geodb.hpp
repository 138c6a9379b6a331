// Per-block geolocation database (the MaxMind-GeoLite2 stand-in, §4).
//
// The topology generator fills this database as it assigns /24 blocks to
// ASes; analysis code queries it to build the 2-degree-binned coverage maps
// (Figures 2-4) and the regional tables. A small fraction of blocks is
// deliberately left un-geolocatable, mirroring the 678 blocks the paper
// drops (Table 4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/world.hpp"
#include "net/ipv4.hpp"

namespace vp::geo {

/// Geolocation record for one /24 block.
struct GeoRecord {
  LatLon location;
  std::uint16_t center_id = 0;  // index into world_centers()
  char country[3] = {'?', '?', '\0'};
  Continent continent = Continent::kEurope;
};

/// Flat, direct-mapped store over the allocated /24 span. The allocated
/// block range is dense in practice (the generators hand out blocks from a
/// contiguous allocator), so a presence byte + record per span slot is far
/// smaller and faster than the hash map it replaces — and the slices are
/// disjoint per writer, which is what lets the scale generator fill the
/// database from parallel shard workers.
///
/// The generators and the image loader all fill it the same way:
/// prepare_span() once, set() each record, then recount().
class GeoDatabase {
 public:
  /// The block's record; nullopt for a block never set ("un-geolocatable").
  std::optional<GeoRecord> lookup(net::Block24 block) const;

  std::size_t size() const { return count_; }

  /// Sizes the store to cover [lo, hi] inclusive (lo <= hi) and drops any
  /// record already in it. After this, set() may be called concurrently
  /// for distinct blocks inside the span.
  void prepare_span(net::Block24 lo, net::Block24 hi);

  /// Writes one record inside the prepared span. Thread-safe for distinct
  /// blocks (plain disjoint writes, no size bookkeeping). Call recount()
  /// once all writers are done.
  void set(net::Block24 block, const GeoRecord& record);

  /// Counts the records set, for size().
  void recount();

  /// Approximate heap footprint.
  std::size_t memory_bytes() const {
    return records_.capacity() * sizeof(GeoRecord) + present_.capacity();
  }

  /// Visits every (block, record) pair in ascending block order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (present_[i])
        fn(net::Block24{first_ + static_cast<std::uint32_t>(i)}, records_[i]);
    }
  }

 private:
  std::uint32_t first_ = 0;
  std::vector<GeoRecord> records_;
  std::vector<std::uint8_t> present_;  // byte-wide: no racy bit RMW
  std::size_t count_ = 0;
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
