// RIPE-Atlas-style measurement platform simulation (the paper's baseline).
//
// Atlas is the traditional, "active VP" side of Figure 1: ~10k physical
// probes query the anycast service (CHAOS TXT hostname.bind) and report
// which site answered. Its two structural properties matter for the
// comparison with Verfploeter:
//   * scale — four hundred times fewer vantage points (Table 4);
//   * skew — probes concentrate where RIPE's community is (Europe),
//     leaving South America and China nearly blind (Figures 2a, 3a).
// VP placement therefore samples population centers by `atlas_weight`
// rather than `block_weight`, and a small fraction of probes is down at
// any given time (Table 4: 455 of 9807 VPs did not respond).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bgp/routing.hpp"
#include "sim/flips.hpp"
#include "sim/responsiveness.hpp"
#include "topology/topology.hpp"

namespace vp::atlas {

/// Probability that a probe is unreachable during a campaign
/// (Table 4: 455/9807 ≈ 4.6%).
inline constexpr double kDownRate = 0.046;
/// Probability a probe is forced into a ping-responsive block (Atlas
/// hosts are well-connected; calibrates the Table 4 "unique" overlap:
/// ~77% of Atlas blocks are also seen by Verfploeter).
inline constexpr double kResponsiveBlockBias = 0.45;

struct AtlasConfig {
  std::uint64_t seed = 47;
  /// Number of probes to deploy.
  std::uint32_t vp_count = 500;
};

/// One deployed Atlas probe.
struct Vp {
  std::uint32_t id = 0;
  net::Block24 block;
  topology::AsId as_id = topology::kNoAs;
  std::uint16_t pop = 0;
  geo::LatLon location;
};

/// Result of one Atlas campaign: per-VP site (kUnknownSite when the probe
/// was down or got no answer).
struct Campaign {
  std::vector<anycast::SiteId> vp_site;
  std::uint32_t considered = 0;
  std::uint32_t responding = 0;

  /// Distinct /24 blocks among responding VPs (several VPs can share one).
  std::uint32_t responding_blocks = 0;
  std::uint32_t considered_blocks = 0;

  double fraction_to(anycast::SiteId site) const;
  std::vector<std::uint64_t> per_site_counts(std::size_t site_count) const;
};

/// Performs one CHAOS TXT hostname.bind exchange against the site BGP
/// routed the VP to, over real DNS wire bytes (serialize -> parse ->
/// respond -> parse). Exposed for tests; kUnknownSite on any failure.
anycast::SiteId resolve_site_via_dns(const anycast::Deployment& deployment,
                                     anycast::SiteId routed_site,
                                     std::uint16_t query_id);

class AtlasPlatform {
 public:
  /// Deploys probes across the topology with the Atlas geographic skew.
  AtlasPlatform(const topology::Topology& topo,
                const sim::ResponsivenessModel& responsiveness,
                const AtlasConfig& config);

  std::span<const Vp> vps() const { return vps_; }

  /// Runs one campaign: each live probe asks the service which site serves
  /// it (hostname.bind) under the given routing epoch and round.
  Campaign measure(const bgp::RoutingTable& routes,
                   const sim::FlipModel& flips, std::uint32_t round) const;

 private:
  const topology::Topology* topo_;
  AtlasConfig config_;
  std::vector<Vp> vps_;
};

}  // namespace vp::atlas
