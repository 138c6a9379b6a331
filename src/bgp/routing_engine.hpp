// Incremental BGP recomputation behind a session API.
//
// A RoutingEngine owns the mutable per-AS propagation state for one
// (topology, deployment, options) session and hands out immutable,
// structurally shared RoutingTables:
//
//   bgp::RoutingEngine engine{topo, deployment, options};
//   auto base = engine.full();                       // initial table
//   auto step = engine.apply(                        // delta table
//       anycast::ConfigDelta::set_prepend(mia, 2));
//   step.changed_ases;                               // blast radius
//
// apply() seeds a frontier with the ASes adjacent to the changed
// announcements (the upstreams of the touched sites) and propagates
// changed/affected sets to quiescence through the three valley-free
// stages, recomputing only ASes whose candidate routes can actually
// change. Unchanged ASes keep their exact AsRoutingState objects, so a
// delta table shares almost all of its storage with its parent and the
// one-knob sweeps of §6.1 (Figs 5-6) cost proportional to their blast
// radius instead of the whole topology.
//
// Correctness contract: routing state is a *canonical* function of the
// configuration — candidate lists are kept in a deterministic order
// independent of propagation order — so the table produced by apply()
// is bit-identical to a fresh full() of the post-delta configuration
// (tests/delta_routing_test.cpp proves this over seeded topologies and
// random delta sequences).
//
// The stratification relies on the customer->provider hierarchy being
// acyclic (the generator's is). If a provider cycle is ever present the
// engine detects it at construction and apply() silently degrades to a
// full recompute — still correct, just not incremental.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "anycast/deployment.hpp"
#include "bgp/routing.hpp"

namespace vp::bgp {

/// Outcome of one RoutingEngine::apply.
struct ApplyResult {
  /// The post-delta routing table (shares state with its parent).
  std::shared_ptr<const RoutingTable> table;
  /// ASes whose final route changed (sorted). Equals
  /// table->changed_ases().
  std::vector<AsId> changed_ases;
  /// ASes the delta propagation visited — the work actually done. Always
  /// >= changed_ases.size() and, for a local change, far below
  /// topology().as_count().
  std::size_t recomputed_ases = 0;
  /// True when the engine had to fall back to a full recompute (first
  /// apply before full(), or a cyclic provider graph).
  bool full_recompute = false;
};

class RoutingEngine {
 public:
  /// Copies the deployment; the topology must outlive the engine.
  RoutingEngine(const topology::Topology& topo,
                const anycast::Deployment& deployment,
                const RoutingOptions& options = {});
  ~RoutingEngine();

  RoutingEngine(const RoutingEngine&) = delete;
  RoutingEngine& operator=(const RoutingEngine&) = delete;

  /// Computes (or recomputes) every AS from scratch and returns the
  /// resulting table. The first call initializes the session.
  std::shared_ptr<const RoutingTable> full();

  /// Applies a configuration delta to the session's deployment and
  /// recomputes only the affected ASes. Thread-safe: applies are
  /// serialized; previously returned tables are immutable and stay
  /// valid.
  ApplyResult apply(const anycast::ConfigDelta& delta);

  /// The session's current deployment (post all applied deltas).
  anycast::Deployment deployment() const;

  /// The most recently produced table; nullptr before the first full().
  std::shared_ptr<const RoutingTable> current() const;

  const RoutingOptions& options() const { return options_; }
  const topology::Topology& topology() const { return *topo_; }

  /// False when the provider hierarchy has a cycle and every apply()
  /// degrades to a full recompute.
  bool incremental_supported() const;

 private:
  struct Impl;

  const topology::Topology* topo_;
  RoutingOptions options_;
  mutable std::mutex mutex_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vp::bgp
