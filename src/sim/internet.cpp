#include "sim/internet.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace vp::sim {

namespace {

// Dataplane counters. probe_into() is the hottest call in the system
// (once per probe attempt, from every worker thread), so it tallies into
// a caller-owned DataplaneTally and these striped Counters only see the
// caller's per-run flush. Observe-only — probe_into() stays pure in its
// inputs and bit-identical with metrics off.
struct DataplaneMetrics {
  obs::Counter& probes;
  obs::Counter& malformed;
  obs::Counter& unresponsive;
  obs::Counter& site_lookups;
  obs::Counter& replies;

  static DataplaneMetrics& get() {
    auto& r = obs::metrics();
    static DataplaneMetrics m{r.counter("vp_sim_probes_total"),
                              r.counter("vp_sim_malformed_probes_total"),
                              r.counter("vp_sim_unresponsive_total"),
                              r.counter("vp_sim_site_lookups_total"),
                              r.counter("vp_sim_replies_total")};
    return m;
  }
};

}  // namespace

double InternetSim::propagation_ms(net::Block24 block, anycast::SiteId site,
                                   const bgp::RoutingTable& routes) const {
  const auto geo = topo_->geo(block);
  if (!geo || site < 0) return 40.0;  // fallback when either end lacks geo
  const auto& site_loc =
      routes.deployment().sites[static_cast<std::size_t>(site)].location;
  // ~1ms per 100km round trip (speed of light in fiber, path stretch).
  return geo::distance_km(geo->location, site_loc) / 100.0 * 2.0;
}

void InternetSim::flush(DataplaneTally& tally) {
  DataplaneMetrics& dm = DataplaneMetrics::get();
  if (tally.probes) dm.probes.add(tally.probes);
  if (tally.malformed) dm.malformed.add(tally.malformed);
  if (tally.unresponsive) dm.unresponsive.add(tally.unresponsive);
  if (tally.site_lookups) dm.site_lookups.add(tally.site_lookups);
  if (tally.replies) dm.replies.add(tally.replies);
  tally = {};
}

void InternetSim::probe_into(const bgp::RoutingTable& routes,
                             std::span<const std::uint8_t> packet_bytes,
                             util::SimTime tx_time, std::uint32_t round,
                             std::vector<DeliveryView>& out,
                             std::vector<std::uint8_t>& reply_scratch,
                             DataplaneTally& tally) const {
  out.clear();
  reply_scratch.clear();
  ++tally.probes;

  // Parse at the "host": a real host only answers well-formed echoes.
  const auto ip = net::Ipv4Header::parse(packet_bytes);
  if (!ip || ip->protocol != net::IpProtocol::kIcmp) {
    ++tally.malformed;
    return;
  }
  if (packet_bytes.size() < ip->total_length) {
    ++tally.malformed;
    return;
  }
  const auto icmp = net::parse_icmp_echo_view(packet_bytes.subspan(
      net::Ipv4Header::kSize, ip->total_length - net::Ipv4Header::kSize));
  if (!icmp || icmp->type != net::IcmpType::kEchoRequest) {
    ++tally.malformed;
    return;
  }

  const net::Block24 block = net::Block24::containing(ip->destination);
  const ReplyBehavior behavior = responsiveness_.behavior(block, round);
  if (!behavior.responds) {
    ++tally.unresponsive;
    return;
  }

  // Hosts answer only if probed at an address that is actually alive
  // (the hitlist's representative may be stale; a stale target answers
  // only when it happens to hit a live secondary host).
  if (!responsiveness_.is_live_host(
          block, static_cast<std::uint8_t>(ip->destination.value() & 0xff))) {
    ++tally.unresponsive;
    return;
  }

  // Source address of the reply: usually the probed host; aliased hosts
  // (multi-homed boxes, middleboxes) reply from a neighboring address.
  net::Ipv4Address reply_source = ip->destination;
  if (behavior.alias) {
    util::Rng rng{util::hash_combine(
        util::hash_combine(responsiveness_.config().seed, 0xa71a5),
        block.index())};
    // Mostly another host in the same /24; occasionally a different block
    // entirely (these get cleaned as "replies from addresses we did not
    // probe", §4).
    if (rng.chance(0.8)) {
      reply_source = block.address(static_cast<std::uint8_t>(
          1 + rng.below(250)));
    } else {
      reply_source =
          net::Ipv4Address{ip->destination.value() + 256};  // next /24
    }
    if (reply_source == ip->destination)
      reply_source = block.address(251);
  }

  // Catchment: the site whose collector will receive this reply.
  ++tally.site_lookups;
  const anycast::SiteId site = flips_.site_in_round(routes, block, round);
  if (site < 0) return;

  net::build_echo_reply_into(reply_scratch, *ip, *icmp, reply_source);

  // Every copy travels the same path: only the queuing jitter differs.
  const double path_ms = propagation_ms(block, site, routes);
  const std::uint64_t jitter_key = util::hash_combine(
      util::hash_combine(config_.responsiveness.seed, round), 0x9d7);
  for (std::uint8_t copy = 0; copy < behavior.copies; ++copy) {
    util::Rng rng{util::hash_combine(util::hash_combine(jitter_key, copy),
                                     block.index())};
    double delay_ms = path_ms + rng.exponential(kMeanQueueDelayMs);
    if (behavior.late && copy == 0)
      delay_ms += kLateExtraMinutes * 60.0 * 1000.0;
    out.push_back(DeliveryView{
        site, tx_time + util::SimTime::from_seconds(delay_ms / 1000.0)});
  }
  tally.replies += out.size();
}

}  // namespace vp::sim
