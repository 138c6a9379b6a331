// Anycast deployment descriptions: the service prefix, and the set of
// sites (each attached to an upstream AS from the simulated topology,
// optionally AS-path prepending its announcement — §6.1).
//
// Presets mirror the paper's Table 3: B-Root (LAX via AS226, MIA via
// AS20080/AMPATH) and the nine-site Tangled testbed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geo/world.hpp"
#include "net/ipv4.hpp"
#include "topology/as_node.hpp"
#include "topology/topology.hpp"

namespace vp::anycast {

/// Index of a site within a deployment. -1 / kUnknownSite means "catchment
/// unknown" (the UNK bucket in the paper's figures).
using SiteId = std::int8_t;
inline constexpr SiteId kUnknownSite = -1;

/// Deepest per-site AS-path prepend an operator may ask for: vpd's /load,
/// vpctl scan --prepend and the sweep and playbook --max-prepend ladders
/// refuse anything deeper.
inline constexpr int kMaxPrepend = 16;

/// One anycast site.
struct AnycastSite {
  std::string code;              // e.g. "LAX"
  topology::AsNumber upstream;   // Table 3 upstream AS
  geo::LatLon location;
  int prepend = 0;   // times the origin AS is prepended at this site
  bool enabled = true;
  /// True for sites whose announcement is not visible in BGP (the paper's
  /// Sao Paulo site routes via the same link as Miami, hiding its
  /// announcement — §4.2 Limitations).
  bool hidden = false;
};

/// A deployment: service prefix plus its sites.
struct Deployment {
  std::string name;
  net::Prefix service_prefix;
  net::Ipv4Address measurement_address;  // within service_prefix, §3.1
  topology::AsNumber origin_asn;
  std::vector<AnycastSite> sites;

  std::size_t active_site_count() const;
  /// Site index by code; nullopt if absent.
  std::optional<SiteId> site_by_code(std::string_view code) const;

  /// Returns a copy with per-site prepending set; unknown codes ignored.
  Deployment with_prepend(std::string_view site_code, int prepend) const;
};

/// Order-sensitive 64-bit hash of everything about a deployment that can
/// change measurement results (prefix, sites, prepends, locations,
/// enabled/hidden flags). Campaign journals fold it into their manifest
/// fingerprint so a journal is never resumed against different sites.
std::uint64_t fingerprint(const Deployment& deployment);

/// One site's worth of configuration change. Fields left unset keep the
/// site's current value; the delta machinery only reacts to fields that
/// actually change something (setting prepend to its current value is a
/// no-op and recomputes nothing).
struct SiteDelta {
  SiteId site = kUnknownSite;
  std::optional<int> prepend;
  std::optional<bool> enabled;
  std::optional<bool> hidden;
};

/// A batch of per-site changes applied atomically between two routing
/// states — the unit `bgp::RoutingEngine::apply` consumes. Operational
/// knobs only: site membership, prepend depth, enable/hide toggles. The
/// prefix, origin ASN, and site *locations* are fixed for a deployment's
/// lifetime (changing those is a new deployment, not a delta).
struct ConfigDelta {
  std::vector<SiteDelta> sites;

  bool empty() const { return sites.empty(); }

  /// Convenience single-change builders.
  static ConfigDelta set_prepend(SiteId site, int prepend);
  static ConfigDelta announce(SiteId site);  // enabled = true
  static ConfigDelta withdraw(SiteId site);  // enabled = false

  /// The change set turning `base` into `target`. Site lists must match
  /// in size, codes, upstreams, and locations — only the mutable knobs
  /// may differ. Returns an empty delta for identical configs.
  static ConfigDelta diff(const Deployment& base, const Deployment& target);

  /// Mutates `deployment` in place. Out-of-range site ids are ignored.
  void apply_to(Deployment& deployment) const;
};

/// B-Root after its May 2017 anycast deployment: LAX + MIA (Table 3).
Deployment make_broot(const topology::Topology& topo);

/// The nine-site Tangled testbed (Table 3). The Sao Paulo site is created
/// hidden (its announcement is masked by Miami's shared link).
Deployment make_tangled(const topology::Topology& topo);

/// A deployment for generated (scale) topologies: `site_count` sites
/// hosted at transit ASes of `topo`, assigned round-robin over the
/// transits in id order with deterministic per-site PoP choice from
/// `seed`. Uses the TEST-NET-1 prefix 192.0.2.0/24 (disjoint from the
/// generated address space, which grows up from 1.0.0.0) and a private
/// origin ASN. Site codes are "S00", "S01", ...
Deployment make_generated(const topology::Topology& topo,
                          std::size_t site_count, std::uint64_t seed = 42);

}  // namespace vp::anycast
