#include "anycast/deployment.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace vp::anycast {

std::uint64_t fingerprint(const Deployment& d) {
  const auto mix_str = [](std::uint64_t f, std::string_view s) {
    f = util::hash_combine(f, s.size());
    for (const char c : s)
      f = util::hash_combine(f, static_cast<unsigned char>(c));
    return f;
  };
  std::uint64_t f = mix_str(0x6465706c6f79ULL, d.name);  // "deploy"
  f = util::hash_combine(
      f, (std::uint64_t{d.service_prefix.base().value()} << 8) |
             d.service_prefix.length());
  f = util::hash_combine(f, d.measurement_address.value());
  f = util::hash_combine(f, d.origin_asn.value);
  f = util::hash_combine(f, d.sites.size());
  for (const AnycastSite& site : d.sites) {
    f = mix_str(f, site.code);
    f = util::hash_combine(f, site.upstream.value);
    f = util::hash_combine(f, std::bit_cast<std::uint64_t>(site.location.lat));
    f = util::hash_combine(f, std::bit_cast<std::uint64_t>(site.location.lon));
    f = util::hash_combine(f, static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(site.prepend)));
    f = util::hash_combine(f, (site.enabled ? 2u : 0u) |
                                  (site.hidden ? 1u : 0u));
  }
  return f;
}

ConfigDelta ConfigDelta::set_prepend(SiteId site, int prepend) {
  SiteDelta change;
  change.site = site;
  change.prepend = prepend;
  ConfigDelta delta;
  delta.sites.push_back(change);
  return delta;
}

ConfigDelta ConfigDelta::announce(SiteId site) {
  SiteDelta change;
  change.site = site;
  change.enabled = true;
  ConfigDelta delta;
  delta.sites.push_back(change);
  return delta;
}

ConfigDelta ConfigDelta::withdraw(SiteId site) {
  SiteDelta change;
  change.site = site;
  change.enabled = false;
  ConfigDelta delta;
  delta.sites.push_back(change);
  return delta;
}

ConfigDelta ConfigDelta::diff(const Deployment& base,
                              const Deployment& target) {
  ConfigDelta delta;
  const std::size_t n = std::min(base.sites.size(), target.sites.size());
  for (std::size_t i = 0; i < n; ++i) {
    const AnycastSite& from = base.sites[i];
    const AnycastSite& to = target.sites[i];
    SiteDelta change;
    change.site = static_cast<SiteId>(i);
    if (from.prepend != to.prepend) change.prepend = to.prepend;
    if (from.enabled != to.enabled) change.enabled = to.enabled;
    if (from.hidden != to.hidden) change.hidden = to.hidden;
    if (change.prepend || change.enabled || change.hidden)
      delta.sites.push_back(change);
  }
  return delta;
}

void ConfigDelta::apply_to(Deployment& deployment) const {
  for (const SiteDelta& change : sites) {
    if (change.site < 0 ||
        static_cast<std::size_t>(change.site) >= deployment.sites.size())
      continue;
    AnycastSite& site = deployment.sites[static_cast<std::size_t>(change.site)];
    if (change.prepend) site.prepend = *change.prepend;
    if (change.enabled) site.enabled = *change.enabled;
    if (change.hidden) site.hidden = *change.hidden;
  }
}

std::size_t Deployment::active_site_count() const {
  return static_cast<std::size_t>(
      std::count_if(sites.begin(), sites.end(), [](const AnycastSite& s) {
        return s.enabled && !s.hidden;
      }));
}

std::optional<SiteId> Deployment::site_by_code(std::string_view code) const {
  for (std::size_t i = 0; i < sites.size(); ++i)
    if (sites[i].code == code) return static_cast<SiteId>(i);
  return std::nullopt;
}

Deployment Deployment::with_prepend(std::string_view site_code,
                                    int prepend) const {
  Deployment copy = *this;
  for (AnycastSite& site : copy.sites)
    if (site.code == site_code) site.prepend = prepend;
  return copy;
}

namespace {

geo::LatLon center_location(std::string_view name) {
  return geo::world_centers()[topology::center_by_name(name)].location;
}

}  // namespace

Deployment make_broot(const topology::Topology&) {
  Deployment d;
  d.name = "B-Root";
  // B-Root's real service prefix; safely outside the generated space.
  d.service_prefix = *net::Prefix::parse("192.228.79.0/24");
  d.measurement_address = *net::Ipv4Address::parse("192.228.79.77");
  d.origin_asn = topology::AsNumber{394353};
  d.sites = {
      AnycastSite{"LAX", topology::AsNumber{226},
                  center_location("Los Angeles")},
      AnycastSite{"MIA", topology::AsNumber{20080},
                  center_location("Miami")},
  };
  return d;
}

Deployment make_tangled(const topology::Topology&) {
  Deployment d;
  d.name = "Tangled";
  d.service_prefix = *net::Prefix::parse("145.100.118.0/24");
  d.measurement_address = *net::Ipv4Address::parse("145.100.118.1");
  d.origin_asn = topology::AsNumber{1149};
  d.sites = {
      AnycastSite{"SYD", topology::AsNumber{20473},
                  center_location("Sydney")},
      AnycastSite{"CDG", topology::AsNumber{20473},
                  center_location("Paris")},
      AnycastSite{"HND", topology::AsNumber{2500}, center_location("Tokyo")},
      AnycastSite{"ENS", topology::AsNumber{1103},
                  center_location("Enschede")},
      AnycastSite{"LHR", topology::AsNumber{20473},
                  center_location("London")},
      AnycastSite{"MIA", topology::AsNumber{20080}, center_location("Miami")},
      AnycastSite{"IAD", topology::AsNumber{1972},
                  center_location("Washington")},
      AnycastSite{"GRU", topology::AsNumber{1251},
                  center_location("Sao Paulo"), 0, true, /*hidden=*/true},
      AnycastSite{"CPH", topology::AsNumber{39839},
                  center_location("Copenhagen")},
  };
  return d;
}

Deployment make_generated(const topology::Topology& topo,
                          std::size_t site_count, std::uint64_t seed) {
  Deployment d;
  d.name = "Generated";
  d.service_prefix = *net::Prefix::parse("192.0.2.0/24");
  d.measurement_address = *net::Ipv4Address::parse("192.0.2.1");
  d.origin_asn = topology::AsNumber{64500};  // private-use ASN
  std::vector<topology::AsId> transits;
  for (topology::AsId v = 0; v < topo.as_count(); ++v)
    if (topo.as_at(v).tier == topology::AsTier::kTransit)
      transits.push_back(v);
  if (transits.empty()) return d;
  // SiteId is int8 and distinct_sites() tracks at most 128 sites.
  site_count = std::min<std::size_t>(site_count, 120);
  d.sites.reserve(site_count);
  for (std::size_t k = 0; k < site_count; ++k) {
    const topology::AsNode& host =
        topo.as_at(transits[k % transits.size()]);
    const std::uint64_t h = util::mix64(util::hash_combine(seed, k));
    const topology::Pop& pop = host.pops[h % host.pops.size()];
    char code[8];
    std::snprintf(code, sizeof(code), "S%02zu", k);
    d.sites.push_back(AnycastSite{code, host.asn, pop.location});
  }
  return d;
}

}  // namespace vp::anycast
