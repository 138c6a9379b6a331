// RTT analysis and anycast site placement (paper §7, future work:
// "it is possible that RTTs of Verfploeter measurements can be used to
// suggest where new anycast sites would be helpful [43]").
//
// Verfploeter's probe replies carry transmit timestamps, so every mapped
// block comes with a measured RTT for free. This module turns those RTTs
// into (a) a per-site / per-continent latency report and (b) a greedy,
// load-weighted site-placement recommender: for each candidate location
// (a population center), estimate how much query-weighted RTT a new site
// there would save, assuming catchments follow proximity for the blocks
// it would win.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "anycast/deployment.hpp"
#include "core/round.hpp"
#include "dnsload/load_model.hpp"
#include "topology/topology.hpp"
#include "util/stats.hpp"

namespace vp::analysis {

/// Latency summary of a measured deployment.
struct LatencyReport {
  struct PerSite {
    anycast::SiteId site = anycast::kUnknownSite;
    std::string code;
    std::uint64_t blocks = 0;
    util::PercentileSummary rtt_ms;
  };
  std::vector<PerSite> per_site;
  util::PercentileSummary overall_rtt_ms;
  /// Load-weighted mean RTT (what a user query experiences on average).
  double load_weighted_mean_ms = 0.0;
};

LatencyReport analyze_latency(
    const topology::Topology& topo, const core::RoundResult& round,
    const dnsload::LoadModel& load, const anycast::Deployment& deployment);

/// One candidate location for a new anycast site.
struct PlacementCandidate {
  std::uint16_t center_id = 0;
  std::string center_name;
  /// Blocks expected to move to the new site (nearer to it than their
  /// currently measured RTT suggests their site is).
  std::uint64_t blocks_won = 0;
  /// Estimated reduction in load-weighted mean RTT across the service.
  double mean_rtt_saving_ms = 0.0;
  /// Estimated total query-milliseconds saved per second of traffic.
  double weighted_saving = 0.0;
};

/// Ranks candidate centers by estimated load-weighted RTT saving. The
/// model assumes a new site would serve blocks whose predicted RTT to the
/// candidate (propagation at ~1 ms / 100 km round trip) is lower than
/// their measured RTT today.
std::vector<PlacementCandidate> recommend_sites(
    const topology::Topology& topo, const core::RoundResult& round,
    const dnsload::LoadModel& load, const anycast::Deployment& deployment,
    std::size_t max_candidates = 5);

/// Predicted RTT from a location to a block, mirroring the simulator's
/// propagation model (analysis-side estimate, not ground truth).
double predicted_rtt_ms(geo::LatLon from, geo::LatLon to);

}  // namespace vp::analysis
