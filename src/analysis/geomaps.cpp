#include "analysis/geomaps.hpp"

#include <algorithm>
#include <sstream>

#include "util/format.hpp"
#include "util/table.hpp"

namespace vp::analysis {

geo::GeoBinner bin_catchment(const topology::Topology& topo,
                             const core::CatchmentMap& map,
                             std::size_t site_count) {
  geo::GeoBinner binner{site_count + 1};
  for (const auto& [block, site] : map.entries()) {
    const auto geo_record = topo.geo(block);
    if (!geo_record) continue;
    const std::size_t category =
        site >= 0 && static_cast<std::size_t>(site) < site_count
            ? static_cast<std::size_t>(site)
            : site_count;
    binner.add(geo_record->location, category);
  }
  return binner;
}

geo::GeoBinner bin_atlas(const atlas::AtlasPlatform& platform,
                         const atlas::Campaign& campaign,
                         std::size_t site_count) {
  geo::GeoBinner binner{site_count + 1};
  const auto vps = platform.vps();
  for (std::size_t i = 0; i < vps.size(); ++i) {
    const anycast::SiteId site = campaign.vp_site[i];
    if (site == anycast::kUnknownSite) continue;  // down probes invisible
    const std::size_t category =
        site >= 0 && static_cast<std::size_t>(site) < site_count
            ? static_cast<std::size_t>(site)
            : site_count;
    binner.add(vps[i].location, category);
  }
  return binner;
}

geo::GeoBinner bin_load(const topology::Topology& topo,
                        const dnsload::LoadModel& load,
                        const core::CatchmentMap& map,
                        std::size_t site_count) {
  geo::GeoBinner binner{site_count + 1};
  for (const dnsload::BlockLoad& bl : load.blocks()) {
    const auto geo_record = topo.geo(bl.block);
    if (!geo_record) continue;
    const anycast::SiteId site = map.site_of(bl.block);
    const std::size_t category =
        site >= 0 && static_cast<std::size_t>(site) < site_count
            ? static_cast<std::size_t>(site)
            : site_count;
    // Weight: average queries/second across the day.
    binner.add(geo_record->location, category,
               bl.daily_queries / 86400.0);
  }
  return binner;
}

geo::GeoBinner bin_load_plain(const topology::Topology& topo,
                              const dnsload::LoadModel& load) {
  geo::GeoBinner binner{1};
  for (const dnsload::BlockLoad& bl : load.blocks()) {
    const auto geo_record = topo.geo(bl.block);
    if (!geo_record) continue;
    binner.add(geo_record->location, 0, bl.daily_queries / 86400.0);
  }
  return binner;
}

std::string render_map_summary(const geo::GeoBinner& binner,
                               const std::vector<std::string>& categories,
                               std::size_t top_bins) {
  std::ostringstream os;

  // Continent totals.
  std::vector<std::string> header{"continent"};
  header.insert(header.end(), categories.begin(), categories.end());
  header.push_back("total");
  util::Table continent_table{header, {util::Align::kLeft}};
  for (const auto& [continent, weights] : binner.by_continent()) {
    double total = 0.0;
    for (const double w : weights) total += w;
    if (total <= 0) continue;
    std::vector<std::string> row{std::string(geo::to_string(continent))};
    for (const double w : weights) row.push_back(util::si_count(w));
    row.push_back(util::si_count(total));
    continent_table.add_row(std::move(row));
  }
  os << continent_table.to_string();

  // Heaviest bins.
  os << "\ntop " << top_bins << " two-degree bins:\n";
  util::Table bin_table{
      {"lat", "lon", "total", "dominant", "share"},
      {util::Align::kRight, util::Align::kRight, util::Align::kRight,
       util::Align::kLeft, util::Align::kRight}};
  const auto rows = binner.rows();
  for (std::size_t i = 0; i < rows.size() && i < top_bins; ++i) {
    const auto& row = rows[i];
    const auto center = row.bin.center();
    const auto dominant = static_cast<std::size_t>(
        std::max_element(row.category_weights.begin(),
                         row.category_weights.end()) -
        row.category_weights.begin());
    bin_table.add_row(
        {util::fixed(center.lat, 0), util::fixed(center.lon, 0),
         util::si_count(row.total),
         dominant < categories.size() ? categories[dominant] : "?",
         util::percent(row.category_weights[dominant] / row.total)});
  }
  os << bin_table.to_string();
  return os.str();
}

}  // namespace vp::analysis
