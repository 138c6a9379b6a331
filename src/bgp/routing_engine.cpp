#include "bgp/routing_engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <span>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"

namespace vp::bgp {

using topology::AsNode;
using topology::Link;
using topology::Relationship;
using topology::Topology;

namespace {

constexpr std::uint8_t kMaxPathLen = 250;

std::span<const double> frontier_buckets() {
  static constexpr double kBounds[] = {1,    2,    4,    8,     16,   32,
                                       64,   128,  256,  512,   1024, 2048,
                                       4096, 8192, 16384, 32768, 65536};
  return kBounds;
}

/// BGP decision order: relationship class (local-pref), then per-link
/// policy bonus (higher wins — local-pref beats path length, as in real
/// BGP), then AS-path length. Returns <0 if a better, 0 tied, >0 worse.
int compare_route(const CandidateRoute& a, const CandidateRoute& b) {
  if (a.cls != b.cls) return static_cast<int>(a.cls) - static_cast<int>(b.cls);
  if (a.local_pref_bonus != b.local_pref_bonus)
    return b.local_pref_bonus - a.local_pref_bonus;
  return static_cast<int>(a.path_len) - static_cast<int>(b.path_len);
}

/// Canonical candidate order. Tiebreak hashes are effectively unique per
/// (receiver, sender, site), so sorting by them makes the list a pure
/// function of the *set* of offers — independent of propagation order,
/// which is what lets delta recomputation be bit-identical to a full one.
bool canonical_less(const CandidateRoute& a, const CandidateRoute& b) {
  if (a.tiebreak != b.tiebreak) return a.tiebreak < b.tiebreak;
  if (a.egress_neighbor != b.egress_neighbor)
    return a.egress_neighbor < b.egress_neighbor;
  if (a.site != b.site) return a.site < b.site;
  return a.egress_pop < b.egress_pop;
}

/// Reduces a pile of offers to the canonical equal-best candidate list:
/// keep only routes tying the best, order canonically, collapse parallel
/// links offering the same (neighbor, site), cap retention.
void reduce(std::vector<CandidateRoute>& offers) {
  if (offers.empty()) return;
  CandidateRoute best = offers.front();
  for (const CandidateRoute& c : offers)
    if (compare_route(c, best) < 0) best = c;
  std::erase_if(offers, [&best](const CandidateRoute& c) {
    return compare_route(c, best) != 0;
  });
  std::sort(offers.begin(), offers.end(), canonical_less);
  offers.erase(std::unique(offers.begin(), offers.end(),
                           [](const CandidateRoute& a,
                              const CandidateRoute& b) {
                             return a.egress_neighbor == b.egress_neighbor &&
                                    a.site == b.site;
                           }),
               offers.end());
  // The retention cap is shared with RoutingTable's fixed-width spray
  // rows (routing.hpp) — the SoA layout depends on it.
  if (offers.size() > kMaxTiedRoutes) offers.resize(kMaxTiedRoutes);
}

/// The three per-class candidate lists of one AS. The final (selected)
/// routes are the best non-empty class — class strictly dominates in
/// compare_route, so no cross-class comparison is needed.
struct ClassLists {
  std::vector<CandidateRoute> cust;
  std::vector<CandidateRoute> peer;
  std::vector<CandidateRoute> prov;

  const std::vector<CandidateRoute>& final_list() const {
    if (!cust.empty()) return cust;
    if (!peer.empty()) return peer;
    return prov;
  }
};

/// The propagation kernel: canonical per-AS state plus the stratified
/// (customer->provider DAG rank) recomputation passes, shared by full
/// and delta computation.
class Kernel {
 public:
  Kernel(const Topology& topo, const anycast::Deployment& deployment,
         const RoutingOptions& options)
      : topo_(topo),
        options_(options),
        deployment_(deployment),
        lists_(topo.as_count()) {
    build_ranks();
  }

  const anycast::Deployment& deployment() const { return deployment_; }
  bool incremental_supported() const { return incremental_ok_; }

  /// Recomputes every AS (initial computation, or the fallback when the
  /// hierarchy is cyclic). Converges to the canonical fixpoint.
  void run_full() {
    refresh_upstreams();
    for (const AsId v : up_order_) recompute_cust(v);
    for (AsId v = 0; v < topo_.as_count(); ++v) recompute_peer(v);
    for (auto it = up_order_.rbegin(); it != up_order_.rend(); ++it)
      recompute_prov(*it);
  }

  /// Affected-set delta propagation: recomputes only ASes reachable from
  /// the changed announcements through the three valley-free stages,
  /// stopping wherever a recomputed candidate list comes out unchanged.
  /// `seed_upstreams` are the upstream ASes of the changed sites. Returns
  /// the ASes the run visited, ascending.
  std::vector<AsId> run_delta(std::span<const AsId> seed_upstreams) {
    refresh_upstreams();
    const AsId n = topo_.as_count();

    // Stage 1: customer routes climb provider edges. Buckets by DAG rank
    // guarantee every AS sees its customers' settled state exactly once.
    std::vector<std::vector<AsId>> up_buckets(rank_count_);
    std::vector<bool> queued_up(n, false);
    const auto enqueue_up = [&](AsId v) {
      if (!queued_up[v]) {
        queued_up[v] = true;
        up_buckets[up_rank_[v]].push_back(v);
      }
    };
    for (const AsId v : seed_upstreams) enqueue_up(v);
    std::vector<AsId> cust_changed;
    for (std::uint32_t r = 0; r < rank_count_; ++r) {
      for (std::size_t i = 0; i < up_buckets[r].size(); ++i) {
        const AsId v = up_buckets[r][i];
        if (!recompute_cust(v)) continue;
        cust_changed.push_back(v);
        for (const Link& l : topo_.as_at(v).links)
          if (l.rel == Relationship::kProvider) enqueue_up(l.neighbor);
      }
    }

    // Stage 2: peers of every AS whose customer routes changed re-derive
    // their peer-learned candidates (peer routes are never re-exported,
    // so this never cascades).
    std::vector<bool> queued_peer(n, false);
    std::vector<AsId> peer_dirty;
    for (const AsId v : cust_changed) {
      for (const Link& l : topo_.as_at(v).links) {
        if (l.rel != Relationship::kPeer || queued_peer[l.neighbor]) continue;
        queued_peer[l.neighbor] = true;
        peer_dirty.push_back(l.neighbor);
      }
    }
    for (const AsId v : peer_dirty) recompute_peer(v);

    // Stage 3: every AS whose *final* selection changed re-advertises to
    // its customer cone; descend in reverse rank order so providers are
    // settled before their customers recompute. `published` moves only
    // when a run is published, and full() and every apply() end with
    // that, so during this run published[v] is v's pre-delta final list.
    const auto selection_changed = [this](AsId v) {
      return lists_[v].final_list() != published[v]->candidates;
    };
    std::vector<std::vector<AsId>> down_buckets(rank_count_);
    std::vector<bool> queued_down(n, false);
    const auto notify_customers = [&](AsId v) {
      for (const Link& l : topo_.as_at(v).links) {
        if (l.rel != Relationship::kCustomer || queued_down[l.neighbor])
          continue;
        queued_down[l.neighbor] = true;
        down_buckets[up_rank_[l.neighbor]].push_back(l.neighbor);
      }
    };
    for (AsId v = 0; v < n; ++v)
      if ((queued_up[v] || queued_peer[v]) && selection_changed(v))
        notify_customers(v);
    for (std::uint32_t r = rank_count_; r-- > 0;) {
      for (std::size_t i = 0; i < down_buckets[r].size(); ++i) {
        const AsId v = down_buckets[r][i];
        if (recompute_prov(v) && selection_changed(v)) notify_customers(v);
      }
    }

    std::vector<AsId> visited;
    for (AsId v = 0; v < n; ++v)
      if (queued_up[v] || queued_peer[v] || queued_down[v])
        visited.push_back(v);
    return visited;
  }

  const std::vector<CandidateRoute>& final_list(AsId v) const {
    return lists_[v].final_list();
  }

  /// Applies `delta` to the session deployment and returns the upstream
  /// ASes of the sites whose configuration differs afterwards: a field
  /// set to its current value, or moved and moved back within the delta,
  /// seeds nothing.
  std::vector<AsId> apply_config(const anycast::ConfigDelta& delta) {
    const anycast::Deployment before = deployment_;
    delta.apply_to(deployment_);
    std::vector<AsId> seeds;
    for (const anycast::SiteDelta& change :
         anycast::ConfigDelta::diff(before, deployment_).sites) {
      const AsId upstream = topo_.find_as(
          deployment_.sites[static_cast<std::size_t>(change.site)].upstream);
      if (upstream != topology::kNoAs) seeds.push_back(upstream);
    }
    return seeds;
  }

 private:
  /// Kahn layering of the customer->provider DAG: up_rank_[provider] >
  /// up_rank_[customer] for every transit edge, so processing by rank
  /// (ascending for customer-route ascent, descending for the descent)
  /// visits each AS after all the neighbors it learns from. A cycle
  /// leaves some ASes unprocessed; the engine then disables incremental
  /// mode (apply falls back to run_full — correct, just not fast).
  void build_ranks() {
    const AsId n = topo_.as_count();
    up_rank_.assign(n, 0);
    std::vector<std::uint32_t> pending(n, 0);
    for (AsId v = 0; v < n; ++v)
      for (const Link& l : topo_.as_at(v).links)
        if (l.rel == Relationship::kCustomer) ++pending[v];
    up_order_.clear();
    up_order_.reserve(n);
    for (AsId v = 0; v < n; ++v)
      if (pending[v] == 0) up_order_.push_back(v);
    for (std::size_t head = 0; head < up_order_.size(); ++head) {
      const AsId v = up_order_[head];
      for (const Link& l : topo_.as_at(v).links) {
        if (l.rel != Relationship::kProvider) continue;
        up_rank_[l.neighbor] =
            std::max(up_rank_[l.neighbor], up_rank_[v] + 1);
        if (--pending[l.neighbor] == 0) up_order_.push_back(l.neighbor);
      }
    }
    incremental_ok_ = up_order_.size() == n;
    if (!incremental_ok_) {
      // Keep a deterministic order anyway: append cycle members by id.
      std::vector<bool> placed(n, false);
      for (const AsId v : up_order_) placed[v] = true;
      for (AsId v = 0; v < n; ++v)
        if (!placed[v]) up_order_.push_back(v);
    }
    rank_count_ = 1;
    for (const std::uint32_t r : up_rank_)
      rank_count_ = std::max(rank_count_, r + 1);
  }

  void refresh_upstreams() {
    upstreams_.clear();
    for (std::size_t s = 0; s < deployment_.sites.size(); ++s) {
      const anycast::AnycastSite& site = deployment_.sites[s];
      if (!site.enabled || site.hidden) continue;
      const AsId upstream = topo_.find_as(site.upstream);
      assert(upstream != topology::kNoAs &&
             "deployment upstream AS missing from topology");
      if (upstream != topology::kNoAs)
        upstreams_.emplace_back(upstream, static_cast<std::uint32_t>(s));
    }
  }

  std::uint64_t tiebreak(AsId receiver, AsId sender, SiteId site) const {
    // Salted so a different epoch (salt) re-rolls which tied candidate an
    // AS canonically prefers — the §5.5 routing shift.
    return util::hash_combine(
        options_.tiebreak_salt,
        util::hash_combine(
            util::hash_combine(topo_.as_at(receiver).asn.value,
                               topo_.as_at(sender).asn.value),
            static_cast<std::uint64_t>(site) + 1));
  }

  /// The route the neighbor on `lv` advertises to `receiver`: what a
  /// real multi-PoP network announces at an interconnect is the route
  /// *its routers at that PoP* selected, so the sender picks by
  /// nearest_egress from the sender-side attachment PoP. This is how
  /// catchment diversity at tied transits propagates into their customer
  /// cones (§6.2). Epoch jitter re-rolls a fraction of tied decisions per
  /// salt (IGP re-weighting, maintenance, TE — the §5.5 shift mechanism).
  CandidateRoute make_offer(AsId receiver, const Link& lv, RouteClass cls,
                            const std::vector<CandidateRoute>& fl) const {
    const AsId sender = lv.neighbor;
    const AsNode& sender_node = topo_.as_at(sender);
    const CandidateRoute* chosen =
        &nearest_egress(sender_node, lv.remote_pop, fl);
    if (fl.size() > 1) {
      const std::uint64_t jitter = util::hash_combine(
          options_.tiebreak_salt,
          util::hash_combine(sender_node.asn.value,
                             topo_.as_at(receiver).asn.value));
      if (util::to_unit(jitter) < kEpochJitterRate) {
        chosen = &fl[util::mix64(jitter) % fl.size()];
      }
    }
    CandidateRoute cand;
    cand.site = chosen->site;
    cand.path_len = static_cast<std::uint8_t>(
        std::min<int>(chosen->path_len + 1, kMaxPathLen));
    cand.cls = cls;
    // The receiver's policy bonus for routes learned over this link.
    cand.local_pref_bonus = lv.local_pref_bonus;
    cand.egress_neighbor = sender;
    cand.egress_pop = lv.local_pop;  // receiver-local PoP of this link
    cand.tiebreak = tiebreak(receiver, sender, cand.site);
    return cand;
  }

  /// The origin AS announces the prefix to each enabled site's upstream.
  /// The upstream hears a customer route whose AS path already contains
  /// the origin (1 hop) plus any prepending configured at that site,
  /// attached at the upstream's PoP nearest the site location.
  void origin_offers(AsId v, std::vector<CandidateRoute>& out) const {
    for (const auto& [upstream, s] : upstreams_) {
      if (upstream != v) continue;
      const anycast::AnycastSite& site = deployment_.sites[s];
      const AsNode& node = topo_.as_at(v);
      std::uint16_t pop = 0;
      double best = std::numeric_limits<double>::max();
      for (std::size_t p = 0; p < node.pops.size(); ++p) {
        const double d =
            geo::distance_km(node.pops[p].location, site.location);
        if (d < best) {
          best = d;
          pop = static_cast<std::uint16_t>(p);
        }
      }
      CandidateRoute cand;
      cand.site = static_cast<SiteId>(s);
      // Clamped like make_offer's hops: unclamped, a prepend of 255
      // would wrap the byte to path length 0 and win everywhere.
      cand.path_len = static_cast<std::uint8_t>(
          1 + std::clamp(site.prepend, 0, kMaxPathLen - 1));
      cand.cls = RouteClass::kCustomer;
      cand.egress_neighbor = topology::kNoAs;  // directly attached service
      cand.egress_pop = pop;
      cand.tiebreak = tiebreak(v, v, cand.site);
      out.push_back(cand);
    }
  }

  /// Each recompute_* derives one class list of `v` purely from the
  /// current neighbor states, reduces it canonically, and reports
  /// whether it changed — the delta passes' stopping condition.
  bool recompute_cust(AsId v) {
    scratch_.clear();
    origin_offers(v, scratch_);
    for (const Link& lv : topo_.as_at(v).links) {
      if (lv.rel != Relationship::kCustomer) continue;
      const std::vector<CandidateRoute>& nl = lists_[lv.neighbor].cust;
      if (nl.empty()) continue;  // customers export only customer routes
      scratch_.push_back(make_offer(v, lv, RouteClass::kCustomer, nl));
    }
    reduce(scratch_);
    if (scratch_ == lists_[v].cust) return false;
    std::swap(lists_[v].cust, scratch_);
    return true;
  }

  bool recompute_peer(AsId v) {
    scratch_.clear();
    for (const Link& lv : topo_.as_at(v).links) {
      if (lv.rel != Relationship::kPeer) continue;
      const std::vector<CandidateRoute>& nl = lists_[lv.neighbor].cust;
      if (nl.empty()) continue;  // peers export only customer routes
      scratch_.push_back(make_offer(v, lv, RouteClass::kPeer, nl));
    }
    reduce(scratch_);
    if (scratch_ == lists_[v].peer) return false;
    std::swap(lists_[v].peer, scratch_);
    return true;
  }

  bool recompute_prov(AsId v) {
    scratch_.clear();
    for (const Link& lv : topo_.as_at(v).links) {
      if (lv.rel != Relationship::kProvider) continue;
      // Providers export their best route of any class to customers.
      const std::vector<CandidateRoute>& nl =
          lists_[lv.neighbor].final_list();
      if (nl.empty()) continue;
      scratch_.push_back(make_offer(v, lv, RouteClass::kProvider, nl));
    }
    reduce(scratch_);
    if (scratch_ == lists_[v].prov) return false;
    std::swap(lists_[v].prov, scratch_);
    return true;
  }

  const Topology& topo_;
  RoutingOptions options_;
  anycast::Deployment deployment_;
  std::vector<ClassLists> lists_;
  std::vector<std::uint32_t> up_rank_;
  std::vector<AsId> up_order_;  // ascending rank, then id
  std::uint32_t rank_count_ = 1;
  bool incremental_ok_ = true;
  std::vector<std::pair<AsId, std::uint32_t>> upstreams_;  // (AS, site)
  std::vector<CandidateRoute> scratch_;

 public:
  /// Published, structurally shared per-AS states — the storage handed
  /// to RoutingTables. Maintained by the engine across applies.
  std::vector<std::shared_ptr<const AsRoutingState>> published;
  std::shared_ptr<const RoutingTable> current;
};

struct DeltaMetrics {
  obs::Counter& applies;
  obs::Histogram& frontier;
  obs::Gauge& affected_fraction;
  obs::Histogram& apply_ms;

  static DeltaMetrics& get() {
    auto& r = obs::metrics();
    static DeltaMetrics m{
        r.counter("vp_bgp_delta_applies_total"),
        r.histogram("vp_bgp_delta_frontier_ases", frontier_buckets()),
        r.gauge("vp_bgp_delta_affected_as_fraction"),
        r.histogram("vp_bgp_delta_apply_ms", obs::latency_buckets_ms())};
    return m;
  }
};

}  // namespace

struct RoutingEngine::Impl : Kernel {
  using Kernel::Kernel;

  /// Replaces the published state of every AS whose final routes differ
  /// from what was last published; returns those ASes, sorted. States
  /// that did not change keep their exact object (structural sharing).
  std::vector<AsId> publish(const Topology& topo) {
    if (!published.empty()) {
      std::vector<AsId> all(topo.as_count());
      std::iota(all.begin(), all.end(), AsId{0});
      return publish_ases(all);
    }
    // Arena publish: the first full() materializes every AS's state, so
    // put them in one contiguous vector and hand out aliasing shared_ptrs
    // into it. At 500k ASes this replaces 500k control blocks +
    // allocations with one, keeps the states cache-adjacent for the
    // table's resolve pass, and preserves pointer identity for the
    // structural-sharing contract (later publishes still replace
    // individual entries with their own allocations).
    std::vector<AsId> changed;
    published.resize(topo.as_count());
    auto arena =
        std::make_shared<std::vector<AsRoutingState>>(topo.as_count());
    changed.reserve(topo.as_count());
    for (AsId v = 0; v < topo.as_count(); ++v) {
      AsRoutingState& state = (*arena)[v];
      state.candidates = final_list(v);
      published[v] = std::shared_ptr<const AsRoutingState>(arena, &state);
      changed.push_back(v);
    }
    return changed;
  }

  /// The same over the ASes in `ases` (sorted) only — the delta fast
  /// path passes the ones the propagation visited, since no other AS can
  /// differ.
  std::vector<AsId> publish_ases(std::span<const AsId> ases) {
    std::vector<AsId> changed;
    for (const AsId v : ases) {
      const std::vector<CandidateRoute>& fl = final_list(v);
      if (published[v]->candidates == fl) continue;
      auto state = std::make_shared<AsRoutingState>();
      state->candidates = fl;
      published[v] = std::move(state);
      changed.push_back(v);
    }
    return changed;
  }

  std::shared_ptr<const RoutingTable> make_table(
      const Topology& topo, const RoutingOptions& options,
      std::shared_ptr<const RoutingTable> parent,
      std::vector<AsId> changed) {
    auto table = std::make_shared<const RoutingTable>(
        topo, std::make_shared<const anycast::Deployment>(deployment()),
        published, options.tiebreak_salt, std::move(parent),
        std::move(changed));
    current = table;
    return table;
  }
};

RoutingEngine::RoutingEngine(const Topology& topo,
                             const anycast::Deployment& deployment,
                             const RoutingOptions& options)
    : topo_(&topo),
      options_(options),
      impl_(std::make_unique<Impl>(topo, deployment, options)) {}

RoutingEngine::~RoutingEngine() = default;

std::shared_ptr<const RoutingTable> RoutingEngine::full() {
  std::lock_guard lock{mutex_};
  auto& registry = obs::metrics();
  registry.counter("vp_bgp_route_computations_total").add();
  obs::Span span{&registry.histogram("vp_bgp_route_full_ms",
                                     obs::latency_buckets_ms())};
  impl_->run_full();
  impl_->publish(*topo_);
  // A from-scratch table: no parent, no delta provenance.
  return impl_->make_table(*topo_, options_, nullptr, {});
}

ApplyResult RoutingEngine::apply(const anycast::ConfigDelta& delta) {
  std::lock_guard lock{mutex_};
  DeltaMetrics& dm = DeltaMetrics::get();
  obs::Span span{&dm.apply_ms};
  dm.applies.add();

  // Seed the frontier with the upstreams adjacent to every site whose
  // configuration actually changes. The upstream set is identical before
  // and after the change (upstream attachment is immutable), so one seed
  // per changed site covers announce, withdraw, and prepend alike.
  const std::vector<AsId> seeds = impl_->apply_config(delta);

  ApplyResult result;
  if (impl_->current == nullptr || !impl_->incremental_supported()) {
    // No base state to delta from (or a cyclic hierarchy): recompute
    // everything. Correct, reported as such, just not incremental.
    impl_->run_full();
    result.full_recompute = true;
    result.recomputed_ases = topo_->as_count();
    result.changed_ases = impl_->publish(*topo_);
    result.table = impl_->make_table(*topo_, options_, impl_->current,
                                     result.changed_ases);
  } else if (seeds.empty()) {
    // The delta's net effect is nothing: the current table answers.
    result.table = impl_->current;
  } else {
    const std::vector<AsId> visited = impl_->run_delta(seeds);
    result.recomputed_ases = visited.size();
    result.changed_ases = impl_->publish_ases(visited);
    result.table = impl_->make_table(*topo_, options_, impl_->current,
                                     result.changed_ases);
  }

  dm.frontier.observe(static_cast<double>(result.recomputed_ases));
  dm.affected_fraction.set(
      topo_->as_count() == 0
          ? 0.0
          : static_cast<double>(result.changed_ases.size()) /
                static_cast<double>(topo_->as_count()));
  return result;
}

anycast::Deployment RoutingEngine::deployment() const {
  std::lock_guard lock{mutex_};
  return impl_->deployment();
}

std::shared_ptr<const RoutingTable> RoutingEngine::current() const {
  std::lock_guard lock{mutex_};
  return impl_->current;
}

bool RoutingEngine::incremental_supported() const {
  return impl_->incremental_supported();
}

}  // namespace vp::bgp
