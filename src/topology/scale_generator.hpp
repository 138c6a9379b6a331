// Internet-scale deterministic topology generator.
//
// The paper-replica generator (generator.hpp) grows the graph from one
// sequential RNG stream, which caps it at ~10k ASes: every draw depends on
// every prior draw, so nothing parallelizes and nothing can be regenerated
// in isolation. This generator takes the communication-free approach of the
// KaGen graph-generator family instead: all randomness is keyed by stable
// per-entity identity — AS v draws from `Rng{hash(seed, phase, v)}`, block b
// from a stateless `hash(seed, phase, b)` — so any worker can compute any
// AS's plan without seeing any other draw. Shards are just chunked AS-id
// ranges; the emitted topology is bit-identical for every thread count and
// shard size, and a single shard can be regenerated in isolation
// (plan_shard), which the determinism suite exercises directly.
//
// Scale target: >= 500k ASes and the paper's 6.4M /24 hitlist (§4 of the
// paper measures 6.4M blocks; EXPERIMENTS.md deviation #1).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "topology/topology.hpp"

namespace vp::topology {

/// Knobs for the sharded generator. Degree-distribution and multihoming
/// knobs follow the AS-relationship structure arguments of "Inferring
/// Catchment in Internet Routing" (see PAPERS.md): the multi-site-AS
/// fraction of Figure 7 is driven by multihoming degree and peering
/// density, so both are first-class here.
struct ScaleConfig {
  std::uint64_t seed = 42;
  std::uint32_t as_count = 10'000;
  std::uint32_t target_blocks = 130'000;  // ~13 blocks/AS, paper-like ratio
  std::uint32_t transit_count = 16;       // tier-1 clique size
  double multihoming_mean = 0.35;    // mean extra providers per stub
  double peering_density = 0.15;     // chance a regional peers laterally
  std::uint32_t shard_size = 4096;  // ASes per shard (any value >= 1 yields
                                    // the same topology)
  unsigned threads = 0;             // 0 = hardware concurrency
};

/// A planned link, from the planning AS toward a lower-id peer. Every edge
/// in the graph has exactly one initiator (providers and peer targets
/// always have lower ids), which gives a canonical global edge order.
struct PlannedEdge {
  AsId peer = kNoAs;
  Relationship rel = Relationship::kProvider;  // what `peer` is to this AS
  std::uint16_t local_pop = 0;
  std::uint16_t remote_pop = 0;
};

/// Everything AS v contributes to the topology, computed independently of
/// every other AS.
struct AsPlan {
  AsNode node;
  std::vector<std::uint8_t> prefix_lens;  // announced prefix lengths
  std::uint32_t block_demand = 0;         // sum of /24s under those prefixes
  std::vector<PlannedEdge> edges;
};

class ScaleGenerator {
 public:
  explicit ScaleGenerator(const ScaleConfig& config);
  ~ScaleGenerator();

  std::uint32_t as_count() const;
  std::uint32_t shard_count() const;

  /// Plans all ASes of one shard (ids [shard*shard_size, ...)), touching no
  /// state outside the shard. Public so tests can prove seeded-substream
  /// independence: a shard planned in isolation must match its slice of the
  /// full run.
  std::vector<AsPlan> plan_shard(std::uint32_t shard) const;

  /// Plans a single AS (pure function of config + id).
  AsPlan plan_as(AsId v) const;

  /// Builds the full topology: parallel per-shard planning, sequential
  /// arithmetic-only stitching (nodes, edges, address allocation), then
  /// parallel per-block materialization. Bit-identical for any
  /// threads/shard_size.
  Topology generate() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience wrapper: ScaleGenerator{config}.generate().
Topology generate_scale_topology(const ScaleConfig& config);

}  // namespace vp::topology
