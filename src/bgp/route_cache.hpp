// Memoized route computation for deployment sweeps.
//
// Prepending and placement searches (analysis::Scenario, bench_fig5/6,
// bench_ext_placement, bench_table6/7) re-route the same topology over
// and over — Anycast-Agility-style playbook searches do it hundreds of
// times — and a full routing computation is the single
// most expensive call in those loops. Catchments are a pure function of
// (topology, deployment, routing options), so the cache keys each
// computed RoutingTable by (anycast::fingerprint(deployment),
// tiebreak_salt) and hands out one shared immutable table per distinct
// configuration — shared across rounds, probe worker threads, and
// campaign resumes. Computation goes through a one-shot
// bgp::RoutingEngine. A configuration reached by a delta is keyed like
// any other (analysis::Scenario::route_delta applies the delta first), so
// it shares its entry with the same configuration routed directly. Every
// table computed stays retained for the cache's lifetime.
//
// Lifetime: tables own a copy of their deployment, so callers may pass
// short-lived Deployment values — e.g.
// `cache.routes(broot.with_prepend("MIA", 2), opts)` — and hold only the
// table. One cache per Topology; the topology must outlive it.
//
// Determinism: a hit returns a table whose every answer is identical to
// a fresh computation (tests/route_cache_test.cpp byte-compares whole
// rounds against fresh RoutingEngine::full() tables). Hits and misses
// are surfaced through obs::MetricsRegistry (vp_bgp_route_cache_*).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "anycast/deployment.hpp"
#include "bgp/routing.hpp"

namespace vp::bgp {

class RouteCache {
 public:
  explicit RouteCache(const topology::Topology& topo) : topo_(&topo) {}

  RouteCache(const RouteCache&) = delete;
  RouteCache& operator=(const RouteCache&) = delete;

  /// The routing table for (deployment, options): a shared cached table
  /// on a hit, a freshly computed and retained one on a miss. Thread-safe;
  /// concurrent callers of the same key compute once.
  std::shared_ptr<const RoutingTable> routes(
      const anycast::Deployment& deployment,
      const RoutingOptions& options = {}) const;

 private:
  struct Key {
    std::uint64_t fingerprint;   // anycast::fingerprint(deployment)
    std::uint64_t salt;          // RoutingOptions::tiebreak_salt
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  const topology::Topology* topo_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<Key, std::shared_ptr<const RoutingTable>, KeyHash>
      entries_;
};

}  // namespace vp::bgp
