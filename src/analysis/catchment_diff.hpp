// Catchment comparison: what changed between two measurements?
//
// The paper compares scans taken weeks apart (§5.5) and before/after
// traffic-engineering changes (§6.1). An operator's first question after
// any such pair is "which blocks moved, and how much traffic do they
// carry?" — this module answers it, per site pair and per AS.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/catchment.hpp"
#include "dnsload/load_model.hpp"
#include "topology/topology.hpp"

namespace vp::analysis {

/// Movement between one ordered pair of sites.
struct SitePairFlow {
  anycast::SiteId from = anycast::kUnknownSite;  // kUnknownSite = unmapped
  anycast::SiteId to = anycast::kUnknownSite;
  std::uint64_t blocks = 0;
  double daily_queries = 0.0;  // traffic carried by the moved blocks
};

/// An AS with many moved blocks (who to investigate after a change).
struct MovedAs {
  std::uint32_t asn = 0;
  std::string name;
  std::uint64_t moved_blocks = 0;
};

struct CatchmentDiff {
  std::uint64_t stable_blocks = 0;
  std::uint64_t moved_blocks = 0;    // mapped in both, different site
  std::uint64_t appeared_blocks = 0; // only in `after`
  std::uint64_t vanished_blocks = 0; // only in `before`
  double moved_queries = 0.0;
  std::vector<SitePairFlow> flows;   // sorted by blocks desc, moves only
  std::vector<MovedAs> top_ases;     // moved blocks desc, then ASN asc

  /// Fraction of blocks (mapped in both rounds) that changed site.
  double moved_fraction() const {
    const std::uint64_t in_both = stable_blocks + moved_blocks;
    return in_both ? static_cast<double>(moved_blocks) /
                         static_cast<double>(in_both)
                   : 0.0;
  }
};

/// Diffs two catchment maps. `load` weights moved blocks by traffic;
/// blocks that send no queries weigh zero.
CatchmentDiff diff_catchments(const topology::Topology& topo,
                              const core::CatchmentMap& before,
                              const core::CatchmentMap& after,
                              const dnsload::LoadModel& load,
                              std::size_t top_as_count = 10);

}  // namespace vp::analysis
