// Anycast stability analysis across measurement rounds (paper §6.3,
// Figure 9, Table 7).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/round.hpp"
#include "topology/topology.hpp"

namespace vp::analysis {

/// Transition counts between two consecutive rounds (Figure 9's series).
struct RoundTransition {
  std::uint64_t stable = 0;    // same site in both rounds
  std::uint64_t flipped = 0;   // different site
  std::uint64_t to_nr = 0;     // responded before, silent now
  std::uint64_t from_nr = 0;   // silent before, responding now
};

/// Per-AS flip totals (Table 7).
struct AsFlipCount {
  std::uint32_t asn = 0;
  std::string name;
  std::uint64_t flipping_blocks = 0;  // distinct blocks that ever flipped
  std::uint64_t flips = 0;            // total flip events
};

struct StabilityReport {
  std::vector<RoundTransition> transitions;  // rounds-1 entries
  std::vector<AsFlipCount> by_as;            // flips desc, then ASN asc
  std::uint64_t total_flips = 0;
  std::uint64_t flipping_ases = 0;
  /// Blocks that flipped at least once (input to §6.2's exclusion).
  std::unordered_set<std::uint32_t> unstable_blocks;

  double median_stable() const;
  double median_flipped() const;
  double median_to_nr() const;
  double median_from_nr() const;
};

/// Streaming classifier: feed catchment maps round by round so a 96-round
/// campaign never needs to be held in memory at once.
class StabilityAccumulator {
 public:
  explicit StabilityAccumulator(const topology::Topology& topo)
      : topo_(&topo) {}

  void add_round(const core::CatchmentMap& map);

  /// Finalizes the report (sorts the per-AS table).
  StabilityReport finish();

 private:
  struct AsAccumulator {
    std::uint64_t flips = 0;
    std::unordered_set<std::uint32_t> blocks;
  };

  const topology::Topology* topo_;
  core::CatchmentMap previous_;
  bool have_previous_ = false;
  std::unordered_map<std::uint32_t, AsAccumulator> per_as_;  // by ASN
  StabilityReport report_;
};

/// Classifies every block across a campaign of rounds.
StabilityReport analyze_stability(
    const topology::Topology& topo,
    std::span<const core::RoundResult> rounds);

}  // namespace vp::analysis
