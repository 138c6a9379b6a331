// Adversarial load workloads for anycast agility experiments.
//
// The paper's load-aware mapping (Figs 5-6) measures how prepending
// shifts *normal* traffic; "Anycast Agility: Network Playbooks to Fight
// DDoS" asks the operational question behind it — when an attack
// concentrates load on part of the deployment, which TE response keeps
// the most traffic served? This module supplies the attack side: four
// deterministic, seeded workload shapes layered on the legitimate
// dnsload::LoadModel baseline:
//
//  * kPolarized   — a bot population spread through one site's catchment
//                   (the Agility paper's polarized attacker scenario);
//  * kFlashCrowd  — legitimate clients in one geographic region surge,
//                   including previously silent blocks (new eyeballs);
//  * kSpoofedFlood— spoofed sources scattered thinly over the whole
//                   allocated address space, so every site absorbs some;
//  * kVolumetric  — a handful of very heavy sources inside one site's
//                   catchment (booter-style per-site flood).
//
// The output is an OfferedLoad: per-block offered traffic (legitimate +
// attack) in integer milli-queries/day. Integer units are deliberate:
// per-site sums become exact, order-independent arithmetic, which is
// what lets the playbook optimizer score candidates incrementally from
// routing deltas and still produce bit-identical results to a full
// rescore at any thread count (see playbook.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "anycast/deployment.hpp"
#include "bgp/routing.hpp"
#include "dnsload/load_model.hpp"
#include "topology/topology.hpp"

namespace vp::agility {

enum class AttackKind : std::uint8_t {
  kPolarized,
  kFlashCrowd,
  kSpoofedFlood,
  kVolumetric,
};

std::string_view to_string(AttackKind kind);
/// Parses "polarized" / "flash" / "spoofed" / "volumetric" (also accepts
/// the long forms "flash-crowd", "spoofed-flood"); nullopt on anything else.
std::optional<AttackKind> attack_kind_from_string(std::string_view name);

/// Polarized: fraction of target-catchment blocks hosting attackers.
inline constexpr double kAttackerFraction = 0.05;

/// One attack shape: everything the generator needs, and nothing more —
/// two specs with equal fields produce byte-identical OfferedLoads on
/// the same scenario. Per-kind knobs are ignored by the other kinds.
struct AttackSpec {
  AttackKind kind = AttackKind::kPolarized;
  std::uint64_t seed = 1;
  /// Attack volume as a multiple of the baseline's total daily queries.
  double magnitude = 4.0;
  /// Site whose catchment the attack concentrates in (polarized and
  /// volumetric); kUnknownSite picks an enabled site from the seed.
  anycast::SiteId target_site = anycast::kUnknownSite;
  /// Spoofed flood: fraction of all allocated blocks that appear as
  /// (spoofed) sources.
  double spoof_fraction = 0.25;
  /// Volumetric: number of distinct heavy sources.
  std::uint32_t source_count = 12;
  /// Flash crowd: radius around the seeded epicenter that surges.
  double radius_km = 1500.0;
};

/// Offered traffic under one attack: parallel arrays over the blocks
/// that send anything, sorted by topology block row. Loads are integer
/// milli-queries/day (fixed-point x1000) so per-site aggregation is
/// exact — see the determinism notes in playbook.hpp.
struct OfferedLoad {
  /// Indices into Topology::blocks(), strictly ascending.
  std::vector<std::uint32_t> rows;
  /// Offered load (legitimate + attack) per row, milli-q/day.
  std::vector<std::uint64_t> milliq;

  std::uint64_t total_milliq = 0;
  std::uint64_t legit_milliq = 0;
  std::uint64_t attack_milliq = 0;
  /// Blocks carrying any attack traffic.
  std::uint64_t attack_blocks = 0;
  /// The concrete site the attack concentrated on (polarized and
  /// volumetric; kUnknownSite for the untargeted kinds).
  anycast::SiteId resolved_target = anycast::kUnknownSite;

  /// Distinguishes offered_load() results from each other without
  /// comparing contents (PlaybookOptimizer's prepare() memo). Unique per
  /// construction, shared by copies (which are identical anyway);
  /// 0 = hand-built, never matches a memo.
  std::uint64_t memo_id = 0;
};

/// The site a spec's target resolves to under `deployment`: the spec's
/// own target_site when it names an enabled site, otherwise a
/// seed-chosen enabled site. kUnknownSite for untargeted attack kinds.
anycast::SiteId resolve_target(const AttackSpec& spec,
                               const anycast::Deployment& deployment);

/// Builds the offered load for `spec`: the legitimate baseline plus the
/// attack traffic, normalized so the attack totals spec.magnitude x the
/// baseline. `baseline_routes` supplies the catchment the attacker is
/// assumed to have mapped (polarized/volumetric target selection) — the
/// pre-response table, exactly what a real attacker observes. `base`
/// must be a load model of `topo`: its rows() index topo.blocks().
OfferedLoad offered_load(const topology::Topology& topo,
                         const dnsload::LoadModel& base,
                         const bgp::RoutingTable& baseline_routes,
                         const AttackSpec& spec);

/// Human-readable one-liner, e.g. "polarized x4.0 @MIA (seed 1)".
std::string describe(const AttackSpec& spec,
                     const anycast::Deployment& deployment);

}  // namespace vp::agility
