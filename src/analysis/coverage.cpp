#include "analysis/coverage.hpp"

#include <unordered_set>

namespace vp::analysis {

CoverageReport compute_coverage(const topology::Topology& topo,
                                const atlas::AtlasPlatform& platform,
                                const atlas::Campaign& campaign,
                                const core::CatchmentMap& verfploeter_map) {
  CoverageReport report;
  report.atlas_vps_considered = campaign.considered;
  report.atlas_vps_responding = campaign.responding;
  report.atlas_vps_nonresponding = campaign.considered - campaign.responding;

  std::unordered_set<std::uint32_t> atlas_blocks;
  std::unordered_set<std::uint32_t> atlas_responding_blocks;
  const auto vps = platform.vps();
  for (std::size_t i = 0; i < vps.size(); ++i) {
    atlas_blocks.insert(vps[i].block.index());
    if (campaign.vp_site[i] >= 0)
      atlas_responding_blocks.insert(vps[i].block.index());
  }
  report.atlas_blocks_considered = atlas_blocks.size();
  report.atlas_blocks_responding = atlas_responding_blocks.size();
  for (const std::uint32_t b : atlas_responding_blocks)
    if (topo.geo(net::Block24{b})) ++report.atlas_blocks_geolocatable;

  report.verf_blocks_considered = verfploeter_map.blocks_probed;
  report.verf_blocks_responding = verfploeter_map.mapped_blocks();
  report.verf_blocks_nonresponding =
      verfploeter_map.blocks_probed - verfploeter_map.mapped_blocks();
  for (const auto& [block, site] : verfploeter_map.entries()) {
    if (topo.geo(block)) {
      ++report.verf_blocks_geolocatable;
    } else {
      ++report.verf_blocks_no_location;
    }
  }

  for (const std::uint32_t b : atlas_responding_blocks) {
    if (verfploeter_map.contains(net::Block24{b})) {
      ++report.shared_blocks;
    } else {
      ++report.atlas_unique_blocks;
    }
  }
  report.verf_unique_blocks =
      verfploeter_map.mapped_blocks() - report.shared_blocks;
  return report;
}

}  // namespace vp::analysis
