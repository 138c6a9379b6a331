// Scenario: one-stop wiring of the full simulation stack, shared by the
// benchmark harnesses, examples, and integration tests.
//
// Builds the simulated Internet once, then hands out the pieces every
// experiment needs: the B-Root and Tangled deployments (Table 3), routing
// epochs for the paper's two measurement dates (April/May 2017 — same
// topology, different tie-break salt, §5.5), the probe engine, the Atlas
// platform, and the load models (B-Root-like and .nl-like).
//
// Scale: the paper probes 6.4M blocks; the default scenario builds ~120k
// and keeps every ratio (Atlas VP share, responsiveness, load skew) so the
// paper's *shapes* reproduce. Set VP_SCALE=4 (etc.) in the environment to
// run larger.
#pragma once

#include <cstdint>
#include <memory>

#include "anycast/deployment.hpp"
#include "atlas/atlas.hpp"
#include "bgp/route_cache.hpp"
#include "bgp/routing.hpp"
#include "bgp/routing_engine.hpp"
#include "core/probe_engine.hpp"
#include "dnsload/load_model.hpp"
#include "hitlist/hitlist.hpp"
#include "sim/internet.hpp"
#include "topology/generator.hpp"

namespace vp::analysis {

struct ScenarioConfig {
  std::uint64_t seed = 42;
  double scale = 1.0;  // multiplies the default 120k-block Internet
  /// When non-zero, build the Internet with the sharded scale generator
  /// (topology/scale_generator.hpp) at this many ASes instead of the
  /// paper-shaped generator, with block count scaled by `scale`. The
  /// B-Root/Tangled deployment slots are filled by generated 2- and
  /// 9-site deployments hosted at the synthetic transit core.
  std::uint32_t generated_ases = 0;
  /// The bench knobs in the environment: VP_SCALE (default
  /// `default_scale`), VP_SEED and VP_GEN_ASES; an empty value means
  /// unset. Each value parses whole, like the CLI's options: VP_SCALE is
  /// a finite number > 0, VP_SEED parses like `--seed`, VP_GEN_ASES fits
  /// a uint32_t. Throws std::invalid_argument naming the variable for
  /// anything else, before any generation starts.
  static ScenarioConfig from_env(double default_scale = 1.0);
};

/// Routing-epoch salts for the paper's two measurement dates.
inline constexpr std::uint64_t kAprilEpoch = 0x20170421;
inline constexpr std::uint64_t kMayEpoch = 0x20170515;

/// A stateful routing session for configuration sweeps: owns a
/// bgp::RoutingEngine seeded at a base deployment under one routing epoch
/// and walks the sweep by incremental deltas. On Tangled-scale
/// topologies a one-site change recomputes only the affected-AS set
/// instead of re-routing the whole Internet (vpctl sweep,
/// bench_delta_routing). Not thread-safe across route_to calls; the
/// returned tables are immutable and freely shared.
class DeltaSession {
 public:
  DeltaSession(const topology::Topology& topo, const anycast::Deployment& base,
               const bgp::RoutingOptions& options)
      : engine_(topo, base, options) {}

  /// Applies `delta` to the session's current configuration and returns
  /// the new table plus the changed-AS summary.
  bgp::ApplyResult apply(const anycast::ConfigDelta& delta) {
    return engine_.apply(delta);
  }

  /// Routes for `target`, reached by diffing the session's current
  /// configuration against it and applying only that delta.
  std::shared_ptr<const bgp::RoutingTable> route_to(
      const anycast::Deployment& target) {
    return engine_.apply(anycast::ConfigDelta::diff(engine_.deployment(),
                                                    target))
        .table;
  }

  /// The session's current configuration.
  anycast::Deployment deployment() const { return engine_.deployment(); }

  bgp::RoutingEngine& engine() { return engine_; }

 private:
  bgp::RoutingEngine engine_;
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config = {});

  const ScenarioConfig& config() const { return config_; }
  const topology::Topology& topo() const { return *topo_; }
  const sim::InternetSim& internet() const { return *internet_; }
  const hitlist::Hitlist& hitlist() const { return *hitlist_; }
  /// The sharded prober over this Internet and hitlist: runs one
  /// measurement round against a routing table (core/probe_engine.hpp).
  const core::ProbeEngine& engine() const { return *engine_; }
  const atlas::AtlasPlatform& atlas() const { return *atlas_; }
  /// The small Atlas deployment of the April B-Root measurements
  /// (Table 6: 967 VPs vs 9,682 in May).
  const atlas::AtlasPlatform& atlas_small() const { return *atlas_small_; }

  const anycast::Deployment& broot() const { return broot_; }
  const anycast::Deployment& tangled() const { return tangled_; }

  /// The routing options of a routing epoch: the tie-break salt that
  /// route(), route_delta() and delta_session() route under.
  bgp::RoutingOptions routing_options(
      std::uint64_t epoch_salt = kMayEpoch) const;

  /// Routes for a deployment under a routing epoch. Served from the
  /// scenario's route cache (sweeps that re-route the same deployment pay
  /// the route computation once); the returned pointer keeps its own
  /// deployment copy alive, so short-lived deployment values are fine.
  std::shared_ptr<const bgp::RoutingTable> route(
      const anycast::Deployment& deployment,
      std::uint64_t epoch_salt = kMayEpoch) const;

  /// route() of `base` with `delta` applied: the cache keys on the
  /// post-delta configuration, so delta-derived and directly-routed
  /// lookups of the same configuration share one table.
  std::shared_ptr<const bgp::RoutingTable> route_delta(
      const anycast::Deployment& base, const anycast::ConfigDelta& delta,
      std::uint64_t epoch_salt = kMayEpoch) const;

  /// A delta-routing session seeded at `base` under `epoch_salt` — the
  /// sweep-oriented counterpart of route(): subsequent configurations
  /// are reached by incremental delta application instead of full
  /// recomputation.
  DeltaSession delta_session(const anycast::Deployment& base,
                             std::uint64_t epoch_salt = kMayEpoch) const;

  /// B-Root-like load for a "date" (seed); .nl-like load for Figure 4b.
  dnsload::LoadModel broot_load(std::uint64_t date_seed) const;
  dnsload::LoadModel nl_load() const;

 private:
  ScenarioConfig config_;
  std::unique_ptr<topology::Topology> topo_;
  std::unique_ptr<sim::InternetSim> internet_;
  std::unique_ptr<hitlist::Hitlist> hitlist_;
  std::unique_ptr<core::ProbeEngine> engine_;
  std::unique_ptr<atlas::AtlasPlatform> atlas_;
  std::unique_ptr<atlas::AtlasPlatform> atlas_small_;
  std::unique_ptr<bgp::RouteCache> route_cache_;
  anycast::Deployment broot_;
  anycast::Deployment tangled_;
};

}  // namespace vp::analysis
