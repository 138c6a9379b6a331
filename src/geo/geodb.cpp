#include "geo/geodb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vp::geo {

GeoBin GeoBin::of(LatLon loc) {
  const double lon = std::clamp(loc.lon, -180.0, 179.999);
  const double lat = std::clamp(loc.lat, -90.0, 89.999);
  return GeoBin{static_cast<std::int16_t>((lon + 180.0) / 2.0),
                static_cast<std::int16_t>((lat + 90.0) / 2.0)};
}

LatLon GeoBin::center() const {
  return LatLon{static_cast<double>(y) * 2.0 - 90.0 + 1.0,
                static_cast<double>(x) * 2.0 - 180.0 + 1.0};
}

void GeoBinner::add(LatLon loc, std::size_t category, double weight) {
  const GeoBin bin = GeoBin::of(loc);
  const BinKey key{static_cast<std::int32_t>(bin.x) * 90 + bin.y};
  auto& weights = bins_[key];
  if (weights.empty()) weights.resize(category_count_, 0.0);
  if (category < category_count_) weights[category] += weight;
}

std::vector<GeoBinner::BinRow> GeoBinner::rows() const {
  std::vector<BinRow> out;
  out.reserve(bins_.size());
  for (const auto& [key, weights] : bins_) {
    BinRow row;
    row.bin = GeoBin{static_cast<std::int16_t>(key.packed / 90),
                     static_cast<std::int16_t>(key.packed % 90)};
    row.category_weights = weights;
    for (double w : weights) row.total += w;
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(),
            [](const BinRow& a, const BinRow& b) { return a.total > b.total; });
  return out;
}

std::vector<std::pair<Continent, std::vector<double>>> GeoBinner::by_continent()
    const {
  // Continent of a bin = continent of the nearest population center.
  const auto centers = world_centers();
  std::vector<std::pair<Continent, std::vector<double>>> totals;
  for (int c = 0; c < 6; ++c) {
    totals.emplace_back(static_cast<Continent>(c),
                        std::vector<double>(category_count_, 0.0));
  }
  for (const auto& row : rows()) {
    const LatLon loc = row.bin.center();
    double best = std::numeric_limits<double>::max();
    Continent continent = Continent::kEurope;
    for (const auto& center : centers) {
      const double d = distance_km(loc, center.location);
      if (d < best) {
        best = d;
        continent = center.continent;
      }
    }
    auto& bucket = totals[static_cast<std::size_t>(continent)].second;
    for (std::size_t i = 0; i < category_count_; ++i)
      bucket[i] += row.category_weights[i];
  }
  return totals;
}

}  // namespace vp::geo
