// Generates a synthetic AS-level Internet with the structural features the
// paper's analyses depend on (see DESIGN.md §2 for the substitution table):
//
//  * a clique of tier-1 transit ASes with world-wide PoPs;
//  * regional ISPs per continent with 1-5 PoPs and 1-3 transit providers;
//  * a long tail of single-PoP stub ASes;
//  * "special" ASes mirroring the paper's named networks — the Table 3
//    upstreams (AS226 at LAX, AS20080/AMPATH at MIA with strong eastern
//    South-America connectivity, AS20473/Vultr, AS2500/WIDE with weak
//    connectivity, ...) and the Table 7 flip-heavy ASes (AS4134 Chinanet,
//    AS7922 Comcast, ...);
//  * per-AS announced prefixes spanning a wide range of lengths (Figure 8)
//    with heavy-tailed per-AS prefix counts (Figure 7);
//  * per-/24 geolocation with population-realistic placement and a small
//    un-geolocatable residue (Table 4).
//
// Everything is driven by a single seed; the same config reproduces the
// same Internet bit-for-bit.
#pragma once

#include <cstdint>

#include "topology/topology.hpp"

namespace vp::topology {

struct TopologyConfig {
  std::uint64_t seed = 42;

  /// Approximate number of /24 blocks in the generated Internet. The
  /// generator fills categories in order (transits, specials, regionals,
  /// then stubs) and stops adding stubs once the target is reached, so
  /// the result lands within a few percent of this value.
  std::uint32_t target_blocks = 120'000;

  /// Returns a config whose size is `factor` × the default 120k blocks.
  static TopologyConfig scaled(double factor);
};

/// Builds the Internet. Deterministic in `config`.
Topology generate_topology(const TopologyConfig& config);

/// Finds a population center by name; aborts if absent (programmer error).
std::uint16_t center_by_name(std::string_view name);

}  // namespace vp::topology
