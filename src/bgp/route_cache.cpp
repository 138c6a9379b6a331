#include "bgp/route_cache.hpp"

#include <bit>
#include <utility>

#include "bgp/routing_engine.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace vp::bgp {

namespace {

struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Gauge& bytes;
  obs::Gauge& entries;

  static CacheMetrics& get() {
    auto& r = obs::metrics();
    static CacheMetrics m{r.counter("vp_bgp_route_cache_hits_total"),
                          r.counter("vp_bgp_route_cache_misses_total"),
                          r.counter("vp_bgp_route_cache_evictions_total"),
                          r.gauge("vp_bgp_route_cache_bytes"),
                          r.gauge("vp_bgp_route_cache_entries")};
    return m;
  }
};

}  // namespace

std::size_t RouteCache::KeyHash::operator()(const Key& k) const noexcept {
  return static_cast<std::size_t>(util::hash_combine(
      util::hash_combine(k.fingerprint, k.salt), k.jitter_bits));
}

void RouteCache::enforce_limit_locked() const {
  if (byte_limit_ == 0) return;
  CacheMetrics& cm = CacheMetrics::get();
  // Never evict the hottest entry: a cap smaller than one table must not
  // turn the cache into a compute-every-time path.
  while (bytes_ > byte_limit_ && entries_.size() > 1) {
    const Key victim = lru_.back();
    const auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
    cm.evictions.add();
  }
  cm.bytes.set(static_cast<double>(bytes_));
  cm.entries.set(static_cast<double>(entries_.size()));
}

std::shared_ptr<const RoutingTable> RouteCache::routes(
    const anycast::Deployment& deployment,
    const RoutingOptions& options) const {
  const Key key{anycast::fingerprint(deployment), options.tiebreak_salt,
                std::bit_cast<std::uint64_t>(options.epoch_jitter_rate)};
  CacheMetrics& cm = CacheMetrics::get();
  // The mutex is held across the compute so concurrent callers of the
  // same key block on one computation instead of racing duplicates —
  // exactly what campaign rounds resuming in parallel want.
  std::lock_guard lock{mutex_};
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++hits_;
    cm.hits.add();
    lru_.splice(lru_.begin(), lru_, it->second.lru);  // mark hottest
    return it->second.table;
  }
  ++misses_;
  cm.misses.add();
  // A one-shot engine session: the produced table owns its deployment
  // copy and shares no state with any other table.
  auto table = RoutingEngine{*topo_, deployment, options}.full();
  lru_.push_front(key);
  const std::size_t table_bytes = table->memory_bytes();
  bytes_ += table_bytes;
  entries_.emplace(key, Entry{table, table_bytes, lru_.begin()});
  enforce_limit_locked();
  return table;
}

std::shared_ptr<const RoutingTable> RouteCache::routes_delta(
    const anycast::Deployment& base, const anycast::ConfigDelta& delta,
    const RoutingOptions& options) const {
  anycast::Deployment target = base;
  delta.apply_to(target);
  // Keying on the post-delta fingerprint (not the (base, delta) pair)
  // unifies delta-derived lookups with direct ones: however a
  // configuration is reached, it has one cache entry.
  return routes(target, options);
}

RouteCacheStats RouteCache::stats() const {
  std::lock_guard lock{mutex_};
  return RouteCacheStats{hits_, misses_, evictions_, entries_.size(), bytes_};
}

void RouteCache::clear() {
  std::lock_guard lock{mutex_};
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  CacheMetrics& cm = CacheMetrics::get();
  cm.bytes.set(0.0);
  cm.entries.set(0.0);
}

}  // namespace vp::bgp
