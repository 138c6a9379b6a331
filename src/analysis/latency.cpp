#include "analysis/latency.hpp"

#include <algorithm>

namespace vp::analysis {

double predicted_rtt_ms(geo::LatLon from, geo::LatLon to) {
  // Same propagation model as the simulator (~1 ms per 100 km, round
  // trip) plus a typical queuing allowance; an analyst would calibrate
  // this constant from the measured RTTs.
  return geo::distance_km(from, to) / 100.0 * 2.0 + 12.0;
}

LatencyReport analyze_latency(const topology::Topology& /*topo*/,
                              const core::RoundResult& round,
                              const dnsload::LoadModel& load,
                              const anycast::Deployment& deployment) {
  LatencyReport report;
  std::vector<std::vector<double>> per_site(deployment.sites.size());
  std::vector<double> all;
  all.reserve(round.map.mapped_blocks());
  double weighted_sum = 0.0, weight_total = 0.0;
  for (const auto& [block, site] : round.map.entries()) {
    const double rtt = round.map.rtt_of(block);
    per_site[static_cast<std::size_t>(site)].push_back(rtt);
    all.push_back(rtt);
    const double queries = load.daily_queries(block);
    if (queries > 0) {
      weighted_sum += queries * rtt;
      weight_total += queries;
    }
  }
  for (std::size_t s = 0; s < per_site.size(); ++s) {
    LatencyReport::PerSite entry;
    entry.site = static_cast<anycast::SiteId>(s);
    entry.code = deployment.sites[s].code;
    entry.blocks = per_site[s].size();
    entry.rtt_ms = util::summarize(per_site[s]);
    report.per_site.push_back(std::move(entry));
  }
  report.overall_rtt_ms = util::summarize(all);
  report.load_weighted_mean_ms =
      weight_total > 0 ? weighted_sum / weight_total : 0.0;
  return report;
}

std::vector<PlacementCandidate> recommend_sites(
    const topology::Topology& topo, const core::RoundResult& round,
    const dnsload::LoadModel& load, const anycast::Deployment& deployment,
    std::size_t max_candidates) {
  const auto centers = geo::world_centers();

  // Pre-resolve block locations once.
  struct BlockSample {
    geo::LatLon location;
    double rtt = 0.0;
    double weight = 1.0;  // load weight; 1 block minimum
  };
  std::vector<BlockSample> samples;
  samples.reserve(round.map.mapped_blocks());
  double total_weight = 0.0;
  for (const auto& [block, site] : round.map.entries()) {
    const auto geo_record = topo.geo(block);
    if (!geo_record) continue;
    BlockSample sample;
    sample.location = geo_record->location;
    sample.rtt = round.map.rtt_of(block);
    sample.weight = std::max(load.daily_queries(block), 1.0);
    total_weight += sample.weight;
    samples.push_back(sample);
  }
  if (samples.empty()) return {};

  std::vector<PlacementCandidate> candidates;
  for (std::uint16_t c = 0; c < centers.size(); ++c) {
    // Skip centers that already host a site.
    bool taken = false;
    for (const auto& site : deployment.sites) {
      if (!site.enabled || site.hidden) continue;
      if (geo::distance_km(site.location, centers[c].location) < 300.0)
        taken = true;
    }
    if (taken) continue;

    PlacementCandidate candidate;
    candidate.center_id = c;
    candidate.center_name = std::string(centers[c].name);
    double saving = 0.0;
    for (const BlockSample& sample : samples) {
      const double new_rtt =
          predicted_rtt_ms(centers[c].location, sample.location);
      if (new_rtt < sample.rtt) {
        ++candidate.blocks_won;
        saving += (sample.rtt - new_rtt) * sample.weight;
      }
    }
    candidate.weighted_saving = saving;
    candidate.mean_rtt_saving_ms = saving / total_weight;
    if (candidate.blocks_won > 0) candidates.push_back(std::move(candidate));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const PlacementCandidate& a, const PlacementCandidate& b) {
              return a.weighted_saving > b.weighted_saving;
            });
  if (candidates.size() > max_candidates)
    candidates.resize(max_candidates);
  return candidates;
}

}  // namespace vp::analysis
