#include "atlas/atlas.hpp"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "dns/message.hpp"
#include "util/rng.hpp"

namespace vp::atlas {

AtlasPlatform::AtlasPlatform(const topology::Topology& topo,
                             const sim::ResponsivenessModel& responsiveness,
                             const AtlasConfig& config)
    : topo_(&topo), config_(config) {
  // Index blocks by population center so VPs can be placed with the Atlas
  // geographic skew. Two pools per center: ping-responsive blocks and all
  // blocks (probes in ping-dark blocks are the Table 4 "unique" VPs).
  const auto centers = geo::world_centers();
  std::vector<std::vector<std::uint32_t>> responsive_pool(centers.size());
  std::vector<std::vector<std::uint32_t>> any_pool(centers.size());
  const auto blocks = topo.blocks();
  for (std::uint32_t i = 0; i < blocks.size(); ++i) {
    const auto& node = topo.as_at(blocks[i].as_id);
    const std::uint16_t center = node.pops[blocks[i].pop].center_id;
    any_pool[center].push_back(i);
    if (responsiveness.ever_responds(blocks[i].block))
      responsive_pool[center].push_back(i);
  }

  // Cumulative Atlas weights over centers.
  std::vector<double> cumulative;
  cumulative.reserve(centers.size());
  double acc = 0.0;
  for (const auto& c : centers) {
    acc += c.atlas_weight;
    cumulative.push_back(acc);
  }

  util::Rng rng{config.seed};
  vps_.reserve(config.vp_count);
  std::uint32_t guard = 0;
  while (vps_.size() < config.vp_count &&
         guard++ < config.vp_count * 100) {
    const double x = rng.uniform() * cumulative.back();
    const auto center = static_cast<std::uint16_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), x) -
        cumulative.begin());
    const bool prefer_responsive = rng.chance(kResponsiveBlockBias);
    const auto& pool = prefer_responsive && !responsive_pool[center].empty()
                           ? responsive_pool[center]
                           : any_pool[center];
    if (pool.empty()) continue;
    const std::uint32_t block_index =
        pool[rng.below(pool.size())];
    const topology::BlockInfo& info = blocks[block_index];
    Vp vp;
    vp.id = static_cast<std::uint32_t>(vps_.size());
    vp.block = info.block;
    vp.as_id = info.as_id;
    vp.pop = info.pop;
    if (const auto geo = topo.geo(info.block)) {
      vp.location = geo->location;
    } else {
      vp.location = topo.as_at(info.as_id).pops[info.pop].location;
    }
    vps_.push_back(vp);
  }
}

namespace {

/// The hostname a site's name server reports (paper §3.1: "the name
/// hostname.bind"), e.g. site LAX -> "b1.lax.root".
std::string site_hostname(const anycast::AnycastSite& site) {
  std::string code;
  for (const char c : site.code)
    code.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  return "b1." + code + ".root";
}

}  // namespace

/// One CHAOS hostname.bind exchange over real DNS wire bytes. Returns the
/// site the VP concludes it is served by (kUnknownSite on any failure).
anycast::SiteId resolve_site_via_dns(const anycast::Deployment& deployment,
                                     anycast::SiteId routed_site,
                                     std::uint16_t query_id) {
  if (routed_site < 0) return anycast::kUnknownSite;

  // VP side: build and serialize the query.
  const dns::Message query = dns::make_hostname_bind_query(query_id);
  const auto query_bytes = query.serialize();
  if (!query_bytes) return anycast::kUnknownSite;

  // Site side: parse the query, answer with this site's hostname.
  const auto received = dns::Message::parse(*query_bytes);
  if (!received) return anycast::kUnknownSite;
  const auto& site = deployment.sites[static_cast<std::size_t>(routed_site)];
  const dns::Message response =
      dns::make_hostname_bind_response(*received, site_hostname(site));
  const auto response_bytes = response.serialize();
  if (!response_bytes) return anycast::kUnknownSite;

  // VP side again: parse the response and map hostname -> site.
  const auto parsed = dns::Message::parse(*response_bytes);
  if (!parsed || parsed->id != query_id) return anycast::kUnknownSite;
  const auto hostname = dns::parse_hostname_bind_response(*parsed);
  if (!hostname) return anycast::kUnknownSite;
  for (std::size_t s = 0; s < deployment.sites.size(); ++s) {
    if (*hostname == site_hostname(deployment.sites[s]))
      return static_cast<anycast::SiteId>(s);
  }
  return anycast::kUnknownSite;
}

Campaign AtlasPlatform::measure(const bgp::RoutingTable& routes,
                                const sim::FlipModel& flips,
                                std::uint32_t round) const {
  Campaign out;
  out.considered = static_cast<std::uint32_t>(vps_.size());
  out.vp_site.assign(vps_.size(), anycast::kUnknownSite);
  std::unordered_set<std::uint32_t> responding_blocks;
  std::unordered_set<std::uint32_t> considered_blocks;
  for (std::size_t i = 0; i < vps_.size(); ++i) {
    considered_blocks.insert(vps_[i].block.index());
    // Probe availability is per (probe, round): some are down right now.
    const std::uint64_t h = util::hash_combine(
        util::hash_combine(config_.seed, 0xa7a5),
        util::hash_combine(vps_[i].id, round));
    if (util::to_unit(h) < kDownRate) continue;
    // A CHAOS TXT hostname.bind query goes wherever BGP takes this VP's
    // network right now — identical ground truth to Verfploeter's
    // replies. The exchange uses real DNS wire bytes end to end: the VP
    // serializes the query, the site's name server answers with its
    // hostname, and the VP maps the hostname back to a site.
    const anycast::SiteId site =
        flips.site_in_round(routes, vps_[i].block, round);
    out.vp_site[i] = resolve_site_via_dns(routes.deployment(), site,
                                          static_cast<std::uint16_t>(
                                              (vps_[i].id + round) & 0xffff));
    if (site >= 0) {
      ++out.responding;
      responding_blocks.insert(vps_[i].block.index());
    }
  }
  out.responding_blocks =
      static_cast<std::uint32_t>(responding_blocks.size());
  out.considered_blocks =
      static_cast<std::uint32_t>(considered_blocks.size());
  return out;
}

double Campaign::fraction_to(anycast::SiteId site) const {
  std::uint64_t hits = 0;
  std::uint64_t total = 0;
  for (const anycast::SiteId s : vp_site) {
    if (s >= 0) {
      ++total;
      if (s == site) ++hits;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

std::vector<std::uint64_t> Campaign::per_site_counts(
    std::size_t site_count) const {
  std::vector<std::uint64_t> counts(site_count, 0);
  for (const anycast::SiteId s : vp_site)
    if (s >= 0 && static_cast<std::size_t>(s) < site_count)
      ++counts[static_cast<std::size_t>(s)];
  return counts;
}

}  // namespace vp::atlas
