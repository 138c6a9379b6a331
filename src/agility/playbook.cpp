#include "agility/playbook.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace vp::agility {

namespace {

/// Adds `q` to the bucket `site` addresses: a real site's sum, or the
/// unknown (unreachable) bucket.
void bucket_add(Score& score, anycast::SiteId site, std::uint64_t q) {
  if (site >= 0 && static_cast<std::size_t>(site) < score.site_milliq.size())
    score.site_milliq[static_cast<std::size_t>(site)] += q;
  else
    score.unknown_milliq += q;
}

void bucket_sub(Score& score, anycast::SiteId site, std::uint64_t q) {
  if (site >= 0 && static_cast<std::size_t>(site) < score.site_milliq.size())
    score.site_milliq[static_cast<std::size_t>(site)] -= q;
  else
    score.unknown_milliq -= q;
}

std::string label_for(const anycast::ConfigDelta& delta,
                      const anycast::Deployment& base) {
  if (delta.empty()) return "baseline";
  std::string label;
  for (const anycast::SiteDelta& change : delta.sites) {
    if (!label.empty()) label += " & ";
    const std::string& code =
        base.sites[static_cast<std::size_t>(change.site)].code;
    if (change.enabled && !*change.enabled) {
      label += code + " withdraw";
    } else if (change.enabled && *change.enabled) {
      label += code + " announce";
      if (change.prepend && *change.prepend > 0)
        label += "+" + std::to_string(*change.prepend);
    } else if (change.prepend) {
      label += code + "+" + std::to_string(*change.prepend);
    } else {
      label += code + " ?";
    }
  }
  return label;
}

struct AgilityMetrics {
  obs::Counter& configs;
  obs::Counter& attacks;
  obs::Histogram& search_ms;

  static AgilityMetrics& get() {
    static AgilityMetrics m{
        obs::metrics().counter("vp_agility_configs_evaluated_total"),
        obs::metrics().counter("vp_agility_attacks_total"),
        obs::metrics().histogram("vp_agility_search_ms",
                                 obs::latency_buckets_ms())};
    return m;
  }
};

}  // namespace

void finalize(Score& score, const CapacityPlan& capacity) {
  score.absorbed_milliq = 0;
  score.broken_milliq = score.unknown_milliq;
  score.overloaded_sites = 0;
  for (std::size_t s = 0; s < score.site_milliq.size(); ++s) {
    const std::uint64_t cap =
        s < capacity.site_milliq.size() ? capacity.site_milliq[s] : 0;
    if (score.site_milliq[s] > cap) {
      score.broken_milliq += score.site_milliq[s];
      ++score.overloaded_sites;
    } else {
      score.absorbed_milliq += score.site_milliq[s];
    }
  }
}

bool better(const Score& a, std::size_t index_a, const Score& b,
            std::size_t index_b) {
  if (a.broken_milliq != b.broken_milliq)
    return a.broken_milliq < b.broken_milliq;
  if (a.overloaded_sites != b.overloaded_sites)
    return a.overloaded_sites < b.overloaded_sites;
  if (a.shifted_blocks != b.shifted_blocks)
    return a.shifted_blocks < b.shifted_blocks;
  return index_a < index_b;
}

PlaybookOptimizer::PlaybookOptimizer(const analysis::Scenario& scenario,
                                     const anycast::Deployment& base,
                                     const PlaybookConfig& config,
                                     std::uint64_t date_seed)
    : scenario_(&scenario),
      base_(base),
      config_(config),
      base_table_(scenario.route(base)),
      base_load_(scenario.broot_load(date_seed)) {
  // Fair-share provisioning: every site (announced or held in reserve)
  // is built for an equal slice of the legitimate baseline, padded by
  // the headroom factor. Integer capacities keep finalize() exact.
  const std::size_t active = std::max<std::size_t>(1, base.active_site_count());
  const auto per_site = static_cast<std::uint64_t>(std::llround(
      config.capacity_headroom * base_load_.total_daily_queries() * 1000.0 /
      static_cast<double>(active)));
  capacity_.site_milliq.assign(base.sites.size(), per_site);
}

std::vector<Candidate> PlaybookOptimizer::enumerate_candidates() const {
  // Per-site action menu. For an announced site: every prepend depth
  // 0..max_prepend (the site's current depth doubles as "keep") plus
  // withdrawal. For a withdrawn site: keep it dark, or re-announce it
  // (selective announcement).
  struct Action {
    bool enabled = true;
    int prepend = 0;
  };
  std::vector<std::vector<Action>> menus;
  for (const anycast::AnycastSite& site : base_.sites) {
    std::vector<Action> menu;
    if (site.enabled) {
      for (int d = 0; d <= config_.max_prepend; ++d)
        menu.push_back({true, d});
      if (site.prepend > config_.max_prepend)
        menu.push_back({true, site.prepend});  // "keep" must stay reachable
      if (config_.allow_withdraw) menu.push_back({false, site.prepend});
    } else {
      menu.push_back({false, site.prepend});  // keep dark
      menu.push_back({true, 0});              // selective announcement
    }
    menus.push_back(std::move(menu));
  }

  std::vector<Candidate> out;
  const auto push_target = [&](const anycast::Deployment& target) {
    Candidate c;
    c.delta = anycast::ConfigDelta::diff(base_, target);
    c.label = label_for(c.delta, base_);
    out.push_back(std::move(c));
  };

  if (config_.strategy == SearchStrategy::kExhaustive) {
    double combos = 1.0;
    for (const auto& menu : menus) combos *= static_cast<double>(menu.size());
    if (combos <= static_cast<double>(kMaxExhaustive)) {
      // Odometer walk over the cartesian product, site 0 fastest — a
      // fixed enumeration order that the ranking tie-break relies on.
      std::vector<std::size_t> pick(menus.size(), 0);
      anycast::Deployment target = base_;
      for (;;) {
        for (std::size_t s = 0; s < menus.size(); ++s) {
          target.sites[s].enabled = menus[s][pick[s]].enabled;
          target.sites[s].prepend = menus[s][pick[s]].prepend;
        }
        push_target(target);
        std::size_t s = 0;
        while (s < pick.size() && ++pick[s] == menus[s].size()) pick[s++] = 0;
        if (s == pick.size()) break;
      }
      // Put the baseline (empty delta) first so index 0 is "no action"
      // in both strategies.
      const auto baseline = std::find_if(
          out.begin(), out.end(),
          [](const Candidate& c) { return c.delta.empty(); });
      if (baseline != out.end()) std::rotate(out.begin(), baseline,
                                             baseline + 1);
      return out;
    }
    // Too many combos to enumerate — degrade to the staged menu below.
  }

  // Stage 1: no action, then every single-site action that changes
  // something, in site order.
  out.push_back({anycast::ConfigDelta{}, "baseline"});
  for (std::size_t s = 0; s < menus.size(); ++s) {
    for (const auto& action : menus[s]) {
      anycast::Deployment target = base_;
      target.sites[s].enabled = action.enabled;
      target.sites[s].prepend = action.prepend;
      anycast::ConfigDelta delta = anycast::ConfigDelta::diff(base_, target);
      if (delta.empty()) continue;
      out.push_back({delta, label_for(delta, base_)});
    }
  }
  return out;
}

std::shared_ptr<const PlaybookOptimizer::Prepared> PlaybookOptimizer::prepare(
    const OfferedLoad& offered) const {
  {
    std::lock_guard lock{memo_mutex_};
    if (memo_ != nullptr && offered.memo_id != 0 &&
        memo_key_ == offered.memo_id)
      return memo_;
  }
  const auto blocks = scenario_->topo().blocks();
  auto prep = std::make_shared<Prepared>();
  prep->base_sites.resize(offered.rows.size());
  prep->base_raw.site_milliq.assign(base_.sites.size(), 0);
  for (std::size_t i = 0; i < offered.rows.size(); ++i) {
    const anycast::SiteId site =
        base_table_->site_for_block(blocks[offered.rows[i]]);
    prep->base_sites[i] = site;
    bucket_add(prep->base_raw, site, offered.milliq[i]);
  }
  std::lock_guard lock{memo_mutex_};
  memo_key_ = offered.memo_id;
  memo_ = prep;
  return prep;
}

Score PlaybookOptimizer::score_table(const bgp::RoutingTable& table,
                                     const OfferedLoad& offered) const {
  const auto prep = prepare(offered);
  const auto blocks = scenario_->topo().blocks();
  Score score;
  score.site_milliq.assign(base_.sites.size(), 0);
  for (std::size_t i = 0; i < offered.rows.size(); ++i) {
    const anycast::SiteId site =
        table.site_for_block(blocks[offered.rows[i]]);
    bucket_add(score, site, offered.milliq[i]);
    if (site != prep->base_sites[i]) ++score.shifted_blocks;
  }
  finalize(score, capacity_);
  return score;
}

namespace {

/// Full rescore with the base catchment already in hand (the parallel
/// pool's cold path; also the entire use_delta = false path).
Score full_score(const bgp::RoutingTable& table, const OfferedLoad& offered,
                 std::span<const anycast::SiteId> base_sites,
                 std::span<const topology::BlockInfo> blocks,
                 std::size_t site_count) {
  Score score;
  score.site_milliq.assign(site_count, 0);
  for (std::size_t i = 0; i < offered.rows.size(); ++i) {
    const anycast::SiteId site = table.site_for_block(blocks[offered.rows[i]]);
    bucket_add(score, site, offered.milliq[i]);
    if (site != base_sites[i]) ++score.shifted_blocks;
  }
  return score;
}

/// Per-site action vector of a configuration, for estimating how much a
/// transition between two candidate configs will cost the routing
/// engine (nothing else — scores never depend on this).
struct ActionVec {
  std::vector<std::int16_t> depth;  // -1 = withdrawn
};

ActionVec actions_of(const anycast::Deployment& config) {
  ActionVec v;
  v.depth.reserve(config.sites.size());
  for (const anycast::AnycastSite& site : config.sites)
    v.depth.push_back(site.enabled ? static_cast<std::int16_t>(site.prepend)
                                   : std::int16_t{-1});
  return v;
}

/// Estimated engine cost of moving between two configs: differing sites
/// first (each one re-converges its upstream cone), then total depth
/// movement (shallower depths hold bigger catchments, so longer ladders
/// flip more ASes). Only an ordering heuristic.
std::pair<int, int> transition_cost(const ActionVec& a, const ActionVec& b) {
  int differing = 0;
  int movement = 0;
  for (std::size_t s = 0; s < a.depth.size(); ++s) {
    if (a.depth[s] == b.depth[s]) continue;
    ++differing;
    // Announce/withdraw flips re-flood the whole cone; weigh them like
    // a full ladder.
    if (a.depth[s] < 0 || b.depth[s] < 0)
      movement += 16;
    else
      movement += std::abs(a.depth[s] - b.depth[s]);
  }
  return {differing, movement};
}

/// The order a worker walks its chunk: greedy nearest-neighbor by
/// estimated transition cost, starting from the session's parked
/// configuration. Consecutive candidates then differ as little as
/// possible (walking a prepend ladder step by step instead of jumping
/// across it), which is what keeps each delta apply's frontier small.
/// Larger chunks keep enumeration order — it is already site-major
/// adjacent and the O(n^2) planning would start to show.
std::vector<std::size_t> plan_walk(const std::vector<Candidate>& candidates,
                                   std::size_t begin, std::size_t end,
                                   const anycast::Deployment& parked,
                                   const anycast::Deployment& base) {
  const std::size_t n = end - begin;
  std::vector<std::size_t> order(n);
  for (std::size_t k = 0; k < n; ++k) order[k] = begin + k;
  constexpr std::size_t kMaxPlanned = 64;
  if (n <= 1 || n > kMaxPlanned) return order;

  std::vector<ActionVec> vecs(n);
  for (std::size_t k = 0; k < n; ++k) {
    anycast::Deployment target = base;
    candidates[begin + k].delta.apply_to(target);
    vecs[k] = actions_of(target);
  }
  ActionVec cur = actions_of(parked);
  std::vector<bool> used(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    std::pair<int, int> best_cost{};
    for (std::size_t k = 0; k < n; ++k) {
      if (used[k]) continue;
      const auto cost = transition_cost(cur, vecs[k]);
      if (best == n || cost < best_cost) {
        best = k;
        best_cost = cost;
      }
    }
    used[best] = true;
    order[step] = begin + best;
    cur = vecs[best];
  }
  return order;
}

/// Incremental rescore: start from the previous candidate's sums and
/// re-answer only the offered blocks inside the new table's
/// changed-block ranges. Integer arithmetic makes this bit-identical to
/// full_score of the same table (playbook_property_test proves it).
Score delta_score(const Score& prev_score,
                  const bgp::RoutingTable& prev_table,
                  const bgp::RoutingTable& table, const OfferedLoad& offered,
                  std::span<const anycast::SiteId> base_sites,
                  std::span<const topology::BlockInfo> blocks) {
  Score score = prev_score;
  for (const bgp::BlockRange& range : table.changed_block_ranges()) {
    const auto lo = std::lower_bound(offered.rows.begin(), offered.rows.end(),
                                     range.first);
    const auto hi = std::lower_bound(lo, offered.rows.end(), range.second);
    for (auto it = lo; it != hi; ++it) {
      const auto i = static_cast<std::size_t>(it - offered.rows.begin());
      const topology::BlockInfo& info = blocks[offered.rows[i]];
      const anycast::SiteId old_site = prev_table.site_for_block(info);
      const anycast::SiteId new_site = table.site_for_block(info);
      if (old_site == new_site) continue;
      const std::uint64_t q = offered.milliq[i];
      bucket_sub(score, old_site, q);
      bucket_add(score, new_site, q);
      if (new_site != base_sites[i] && old_site == base_sites[i])
        ++score.shifted_blocks;
      else if (new_site == base_sites[i] && old_site != base_sites[i])
        --score.shifted_blocks;
    }
  }
  return score;
}

}  // namespace

std::vector<Score> PlaybookOptimizer::evaluate(
    const std::vector<Candidate>& candidates,
    const OfferedLoad& offered) const {
  return evaluate(candidates, offered, *prepare(offered));
}

std::vector<Score> PlaybookOptimizer::evaluate(
    const std::vector<Candidate>& candidates, const OfferedLoad& offered,
    const Prepared& prep) const {
  const auto blocks = scenario_->topo().blocks();
  const std::size_t site_count = base_.sites.size();
  const std::span<const anycast::SiteId> base_sites = prep.base_sites;
  std::vector<Score> results(candidates.size());

  // The base config's raw sums, shared by every worker as its chunk's
  // starting point (each delta session also starts at the base config).
  const Score& base_score = prep.base_raw;

  util::parallel_for(
      candidates.size(), util::resolve_threads(config_.threads),
      [&](std::size_t begin, std::size_t end) {
        if (!config_.use_delta) {
          // A/B escape hatch: every candidate routed and scored from
          // scratch, no session, no sharing.
          for (std::size_t i = begin; i < end; ++i) {
            anycast::Deployment target = base_;
            candidates[i].delta.apply_to(target);
            bgp::RoutingEngine engine{scenario_->topo(), target,
                                      scenario_->routing_options()};
            Score score = full_score(*engine.full(), offered, base_sites,
                                     blocks, site_count);
            finalize(score, capacity_);
            results[i] = std::move(score);
          }
          return;
        }
        // Delta path: one routing session walks the chunk; each step
        // recomputes only the affected-AS set and the score update
        // touches only the changed block ranges. Sessions come from the
        // recycle pool and resume from wherever they were parked — the
        // walk order below starts at the parked configuration, so no
        // rewind apply is ever paid.
        ParkedSession session;
        {
          std::lock_guard lock{sessions_mutex_};
          if (!sessions_.empty()) {
            session = std::move(sessions_.back());
            sessions_.pop_back();
          }
        }
        if (session.engine == nullptr) {
          session.engine = std::make_unique<bgp::RoutingEngine>(
              scenario_->topo(), base_, scenario_->routing_options());
          session.table = session.engine->full();
          session.config = base_;
          session.raw = base_score;
          session.memo_id = offered.memo_id;
        } else if (session.memo_id != offered.memo_id ||
                   offered.memo_id == 0) {
          // Parked sums belong to a different offered load: one full
          // pass re-bases them (much cheaper than a rewind apply).
          session.raw = full_score(*session.table, offered, base_sites,
                                   blocks, site_count);
          session.memo_id = offered.memo_id;
        }

        const std::vector<std::size_t> order =
            plan_walk(candidates, begin, end, session.config, base_);
        // Only this worker touches the engine, so its configuration is
        // tracked locally instead of copied out under the engine mutex
        // per candidate.
        anycast::Deployment current = std::move(session.config);
        std::shared_ptr<const bgp::RoutingTable> prev =
            std::move(session.table);
        Score prev_score = std::move(session.raw);
        for (const std::size_t i : order) {
          anycast::Deployment target = base_;
          candidates[i].delta.apply_to(target);
          const bgp::ApplyResult result = session.engine->apply(
              anycast::ConfigDelta::diff(current, target));
          current = std::move(target);
          Score score;
          if (result.table.get() == prev.get()) {
            score = prev_score;  // no-op delta: same table, same sums
          } else if (!result.full_recompute &&
                     result.table->parent().get() == prev.get()) {
            score = delta_score(prev_score, *prev, *result.table, offered,
                                base_sites, blocks);
          } else {
            score = full_score(*result.table, offered, base_sites, blocks,
                               site_count);
          }
          prev = result.table;
          prev_score = score;
          finalize(score, capacity_);
          results[i] = std::move(score);
        }
        session.config = std::move(current);
        session.table = std::move(prev);
        session.raw = std::move(prev_score);
        std::lock_guard lock{sessions_mutex_};
        sessions_.push_back(std::move(session));
      });

  AgilityMetrics::get().configs.add(candidates.size());
  return results;
}

PlaybookEntry PlaybookOptimizer::respond(const AttackSpec& attack) const {
  const auto t0 = std::chrono::steady_clock::now();

  const OfferedLoad offered =
      offered_load(scenario_->topo(), base_load_, *base_table_, attack);
  const auto prep = prepare(offered);

  std::vector<Candidate> candidates = enumerate_candidates();
  std::vector<Score> scores = evaluate(candidates, offered, *prep);

  // Stage 2 (staged strategy only): combine the best single-site moves
  // pairwise. Selection uses the same deterministic order as the final
  // ranking, so the stage-2 candidate set is a pure function of the
  // stage-1 scores.
  if (config_.strategy == SearchStrategy::kStaged && kStageCombine > 1) {
    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return better(scores[a], a, scores[b], b);
    });
    std::vector<std::size_t> top;
    for (const std::size_t i : order) {
      if (candidates[i].delta.sites.size() != 1) continue;  // singles only
      top.push_back(i);
      if (top.size() >= kStageCombine) break;
    }
    std::vector<Candidate> combos;
    for (std::size_t a = 0; a < top.size(); ++a) {
      for (std::size_t b = a + 1; b < top.size(); ++b) {
        const auto& da = candidates[top[a]].delta;
        const auto& db = candidates[top[b]].delta;
        if (da.sites[0].site == db.sites[0].site) continue;
        anycast::ConfigDelta merged;
        merged.sites = da.sites;
        merged.sites.push_back(db.sites[0]);
        std::sort(merged.sites.begin(), merged.sites.end(),
                  [](const anycast::SiteDelta& x, const anycast::SiteDelta& y) {
                    return x.site < y.site;
                  });
        combos.push_back({merged, label_for(merged, base_)});
      }
    }
    if (!combos.empty()) {
      std::vector<Score> combo_scores = evaluate(combos, offered, *prep);
      candidates.insert(candidates.end(),
                        std::make_move_iterator(combos.begin()),
                        std::make_move_iterator(combos.end()));
      scores.insert(scores.end(),
                    std::make_move_iterator(combo_scores.begin()),
                    std::make_move_iterator(combo_scores.end()));
    }
  }

  // Rank everything by the deterministic objective order.
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return better(scores[a], a, scores[b], b);
  });

  PlaybookEntry entry;
  entry.attack = attack;
  entry.attack_label = describe(attack, base_);
  entry.target = offered.resolved_target;
  entry.offered_milliq = offered.total_milliq;
  entry.attack_milliq = offered.attack_milliq;
  entry.configs_evaluated = candidates.size();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].delta.empty()) {
      entry.no_action = scores[i];
      break;
    }
  }
  const std::size_t keep = std::min(config_.top_k, order.size());
  for (std::size_t r = 0; r < keep; ++r) {
    const std::size_t i = order[r];
    entry.responses.push_back({candidates[i], scores[i], i});
  }
  entry.search_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

  AgilityMetrics& metrics = AgilityMetrics::get();
  metrics.attacks.add();
  metrics.search_ms.observe(entry.search_ms);
  return entry;
}

Playbook PlaybookOptimizer::build(std::span<const AttackSpec> attacks) const {
  Playbook playbook;
  playbook.base = base_;
  playbook.capacity = capacity_;
  for (const AttackSpec& attack : attacks)
    playbook.entries.push_back(respond(attack));
  return playbook;
}

}  // namespace vp::agility
