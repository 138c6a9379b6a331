#include "bgp/route_cache.hpp"

#include <utility>

#include "bgp/routing_engine.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace vp::bgp {

namespace {

struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;

  static CacheMetrics& get() {
    auto& r = obs::metrics();
    static CacheMetrics m{r.counter("vp_bgp_route_cache_hits_total"),
                          r.counter("vp_bgp_route_cache_misses_total")};
    return m;
  }
};

}  // namespace

std::size_t RouteCache::KeyHash::operator()(const Key& k) const noexcept {
  return static_cast<std::size_t>(util::hash_combine(k.fingerprint, k.salt));
}

std::shared_ptr<const RoutingTable> RouteCache::routes(
    const anycast::Deployment& deployment,
    const RoutingOptions& options) const {
  const Key key{anycast::fingerprint(deployment), options.tiebreak_salt};
  CacheMetrics& cm = CacheMetrics::get();
  // The mutex is held across the compute so concurrent callers of the
  // same key block on one computation instead of racing duplicates —
  // exactly what campaign rounds resuming in parallel want.
  std::lock_guard lock{mutex_};
  if (const auto it = entries_.find(key); it != entries_.end()) {
    cm.hits.add();
    return it->second;
  }
  cm.misses.add();
  // A one-shot engine session: the produced table owns its deployment
  // copy and shares no state with any other table.
  auto table = RoutingEngine{*topo_, deployment, options}.full();
  entries_.emplace(key, table);
  return table;
}

}  // namespace vp::bgp
