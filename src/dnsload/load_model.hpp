// Per-block DNS query load model (paper §3.2, §5.4).
//
// Stands in for B-Root's DITL/RSSAC query logs (datasets LB-4-12,
// LB-5-15) and the .nl operator logs (LN-4-12). Reproduced effects:
//
//  * only a minority of /24 blocks send DNS to a root at all (B-Root saw
//    1.39M blocks; Verfploeter mapped 3.79M);
//  * querying blocks are strongly biased toward ping-responsive networks
//    (resolvers are servers), yet a stubborn residue is not mappable —
//    concentrated where whole networks filter ICMP (Korea/Japan/Asia,
//    Figure 4a);
//  * per-block volume is heavy-tailed with resolver hotspots ("load
//    seems to concentrate traffic in fewer hotspots", §5.4) and higher
//    per-block load in NAT-dense regions (India, §5.4);
//  * volume follows a diurnal curve in each block's local time;
//  * queries split into good replies vs all replies (§3.2), with the
//    root's famously junk-heavy mix;
//  * the .nl-like profile concentrates load in Europe (Figure 4b).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "net/ipv4.hpp"
#include "sim/responsiveness.hpp"
#include "topology/topology.hpp"

namespace vp::dnsload {

enum class LoadProfile {
  kRootLike,  // global, tracks Internet users (B-Root)
  kNlLike,    // Europe/Netherlands-concentrated ccTLD (.nl)
};

/// Probability that a ping-responsive block runs a resolver that
/// queries this service.
inline constexpr double kQueryingRateResponsive = 0.40;
/// Multiplier on that probability for ping-unresponsive blocks.
inline constexpr double kNonresponsiveFactor = 0.08;
/// Volume multiplier for querying blocks that are ping-unresponsive:
/// ICMP-filtering networks are often large NATted ISPs whose resolvers
/// serve many users, which is why the paper's unmappable 12.9% of
/// blocks carry 17.6% of queries (Table 5).
inline constexpr double kNonresponsiveVolumeMultiplier = 3.5;
/// Pareto shape of per-block daily volume (heavy tail).
inline constexpr double kParetoAlpha = 1.2;
/// Fraction of querying blocks that are major-resolver hotspots, and
/// their volume multiplier.
inline constexpr double kHotspotRate = 0.004;
inline constexpr double kHotspotMultiplier = 60.0;
/// Cap on a single block's volume, as a multiple of the mean block.
/// Stops the pareto x hotspot x regional product from minting a block
/// that alone carries percents of the service's traffic.
inline constexpr double kMaxBlockMultiple = 400.0;
/// Average daily queries per querying block after normalization
/// (B-Root 2017: ~2.2G/day over ~1.39M blocks ~ 1580 q/day/block).
inline constexpr double kMeanDailyPerBlock = 1580.0;
/// Mean fraction of queries that yield "good" replies (the root sees
/// mostly junk names; §3.2 separates good replies from all replies).
inline constexpr double kGoodReplyMean = 0.45;

struct LoadConfig {
  std::uint64_t seed = 31;
  /// Seed for *which* blocks query. Defaults to `seed`; give two models
  /// the same membership_seed but different seeds to represent the same
  /// client population measured on two dates (volumes drift, the set of
  /// resolvers mostly does not).
  std::uint64_t membership_seed = 0;  // 0 = use `seed`
  LoadProfile profile = LoadProfile::kRootLike;
};

/// Load record for one querying block.
struct BlockLoad {
  net::Block24 block;
  double daily_queries = 0.0;
  float good_fraction = 0.5f;
};

class LoadModel {
 public:
  /// `topo` must outlive the model: daily_queries() finds blocks in it.
  LoadModel(const topology::Topology& topo,
            const sim::ResponsivenessModel& responsiveness,
            const LoadConfig& config);

  const LoadConfig& config() const { return config_; }

  /// Every querying block with its daily volume, in Topology::blocks()
  /// order.
  std::span<const BlockLoad> blocks() const { return blocks_; }

  /// The Topology::blocks() row of each blocks() entry, ascending.
  std::span<const std::uint32_t> rows() const { return rows_; }

  double total_daily_queries() const { return total_daily_; }
  double total_daily_good_replies() const { return total_good_; }

  /// Daily queries for one block (0 if it does not query).
  double daily_queries(net::Block24 block) const;

  /// Diurnal weight of `hour_utc` for a block at longitude `lon`;
  /// the 24 weights sum to 1.
  static double hourly_weight(double lon_degrees, int hour_utc);

 private:
  const topology::Topology* topo_;
  LoadConfig config_;
  std::vector<BlockLoad> blocks_;
  std::vector<std::uint32_t> rows_;
  double total_daily_ = 0.0;
  double total_good_ = 0.0;
};

/// Country-level query-volume multiplier for a profile. Exposed for tests.
double country_volume_multiplier(LoadProfile profile,
                                 std::string_view country);

}  // namespace vp::dnsload
