// PlaybookOptimizer: load-aware search over the TE configuration space.
//
// Given an attack shape (attack.hpp) and per-site capacities, find the
// best traffic-engineering response — per-site prepend depth, site
// withdrawal, selective (re-)announcement — and report the
// absorb/break-down tradeoff of each candidate, Agility-paper style.
// Ranked over a catalog of attack shapes, the results form a *playbook*:
// the precomputed response an operator deploys when an attack of that
// shape arrives.
//
// Objective. A site offered more than its capacity breaks down and loses
// ALL of its traffic (the Agility paper's breakdown model); traffic to
// withdrawn/unreachable destinations is lost outright. A candidate is
// scored by (in lexicographic order):
//   1. broken traffic, ascending    — serve as much as possible;
//   2. overloaded site count        — fewer melted sites;
//   3. shifted blocks vs base       — prefer the least disruptive move;
//   4. enumeration index            — a total, deterministic order.
// All four keys are integers (loads are milli-queries/day, see
// attack.hpp), so the argmin is exact: no float tie can make two runs
// disagree.
//
// Search. Two strategies over the per-site action set {prepend 0..P,
// withdraw, re-announce}:
//   kExhaustive — the full cartesian product; for small deployments and
//                 for the property test that proves optimizer == argmin.
//   kStaged     — every single-site action, then pairwise combinations
//                 of the best single moves; linear in sites, and how the
//                 search stays tractable at Tangled scale and beyond.
//
// Evaluation. Candidates are scored against per-site integer load sums.
// The delta path walks each worker's contiguous candidate chunk through
// one bgp::RoutingEngine session (under Scenario::routing_options): step i
// reuses step i-1's table and recomputes only the affected-AS set, and
// the score is updated incrementally from the table's
// changed_block_ranges() — exact, because the sums are integers. The
// full path (use_delta = false, the tests' and benches' reference)
// recomputes every candidate's table and score from scratch. Both paths
// are bit-identical by construction and by test
// (tests/playbook_property_test.cpp), at any thread count
// (tests/playbook_determinism_test.cpp, raced under TSan).
//
// Metrics: vp_agility_configs_evaluated_total,
// vp_agility_search_ms (histogram), vp_agility_attacks_total.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "agility/attack.hpp"
#include "analysis/scenario.hpp"
#include "anycast/deployment.hpp"

namespace vp::agility {

/// Per-site capacity in milli-queries/day, indexed like the deployment's
/// site list.
struct CapacityPlan {
  std::vector<std::uint64_t> site_milliq;
};

/// One scored configuration. The raw fields (site sums, unknown,
/// shifted) are pure integer functions of (offered load, routing table);
/// the derived fields follow from the capacity plan.
struct Score {
  std::vector<std::uint64_t> site_milliq;  // offered load per site
  std::uint64_t unknown_milliq = 0;        // unreachable / withdrawn-to
  std::uint64_t shifted_blocks = 0;        // offered blocks moved vs base
  // Derived (finalize()):
  std::uint64_t absorbed_milliq = 0;  // served within capacity
  std::uint64_t broken_milliq = 0;    // lost at overloaded sites + unknown
  std::uint32_t overloaded_sites = 0;

  double absorbed_fraction(std::uint64_t total) const {
    return total ? static_cast<double>(absorbed_milliq) /
                       static_cast<double>(total)
                 : 0.0;
  }
  double broken_fraction(std::uint64_t total) const {
    return total ? static_cast<double>(broken_milliq) /
                       static_cast<double>(total)
                 : 0.0;
  }
  /// Fraction of sites past capacity (the overload fraction the
  /// optimizer's constraint tracks).
  double overload_fraction() const {
    return site_milliq.empty()
               ? 0.0
               : static_cast<double>(overloaded_sites) /
                     static_cast<double>(site_milliq.size());
  }

  bool operator==(const Score&) const = default;
};

/// Fills the derived fields from the capacity plan: a site past its
/// capacity contributes all of its traffic to `broken`.
void finalize(Score& score, const CapacityPlan& capacity);

/// Strict deterministic candidate order: lexicographic on (broken,
/// overloaded sites, shifted blocks, enumeration index).
bool better(const Score& a, std::size_t index_a, const Score& b,
            std::size_t index_b);

/// One TE response candidate: the change set vs the base deployment.
struct Candidate {
  anycast::ConfigDelta delta;  // empty = "no action" baseline
  std::string label;           // e.g. "baseline", "MIA+2", "SYD withdraw"
};

struct RankedResponse {
  Candidate candidate;
  Score score;
  std::size_t candidate_index = 0;  // enumeration order (stable across runs)
};

struct PlaybookEntry {
  AttackSpec attack;
  std::string attack_label;
  anycast::SiteId target = anycast::kUnknownSite;
  std::uint64_t offered_milliq = 0;
  std::uint64_t attack_milliq = 0;
  Score no_action;                       // baseline config under attack
  std::vector<RankedResponse> responses; // best-first, top_k entries
  std::size_t configs_evaluated = 0;
  double search_ms = 0.0;

  const RankedResponse& best() const { return responses.front(); }
};

struct Playbook {
  anycast::Deployment base;
  CapacityPlan capacity;
  std::vector<PlaybookEntry> entries;
};

enum class SearchStrategy : std::uint8_t {
  kStaged,
  kExhaustive,
};

/// kStaged: how many of the best single-site moves to combine pairwise.
inline constexpr std::size_t kStageCombine = 3;
/// kExhaustive refuses (falls back to kStaged) beyond this many
/// candidates; (max_prepend + 2)^sites grows fast.
inline constexpr std::size_t kMaxExhaustive = 65536;

struct PlaybookConfig {
  /// Per-site prepend depths searched: 0..max_prepend.
  int max_prepend = 3;
  bool allow_withdraw = true;
  SearchStrategy strategy = SearchStrategy::kStaged;
  /// Parallel candidate-evaluation workers (0 = hardware threads). The
  /// playbook is bit-identical for any value.
  unsigned threads = 1;
  /// Delta-session evaluation (default) vs full per-candidate
  /// recomputation — the reference path playbook_property_test and
  /// bench_playbook compare against. Results are bit-identical either way.
  bool use_delta = true;
  /// Per-site capacity = headroom x (baseline legit total / active
  /// sites) — fair-share provisioning with a safety factor.
  double capacity_headroom = 1.6;
  /// Ranked responses kept per attack.
  std::size_t top_k = 5;
};

class PlaybookOptimizer {
 public:
  /// The scenario must outlive the optimizer. `base` is the deployment
  /// the operator runs before the attack; capacities derive from its
  /// legitimate baseline load (date_seed picks the query-log dataset).
  PlaybookOptimizer(const analysis::Scenario& scenario,
                    const anycast::Deployment& base,
                    const PlaybookConfig& config = {},
                    std::uint64_t date_seed = 0x20170515ull);

  const PlaybookConfig& config() const { return config_; }
  const CapacityPlan& capacity() const { return capacity_; }
  const anycast::Deployment& base() const { return base_; }

  /// The candidate set the configured strategy starts from (exhaustive
  /// product or stage-1 single moves). Exposed for the property tests.
  std::vector<Candidate> enumerate_candidates() const;

  /// Reference scoring path: one configuration's full table, one full
  /// pass over the offered load. The optimizer's delta-evaluated scores
  /// must equal this bit for bit.
  Score score_table(const bgp::RoutingTable& table,
                    const OfferedLoad& offered) const;

  /// Scores every candidate against an offered load, through the
  /// configured evaluation path (delta session or full recompute) at the
  /// configured thread count. Public for bench_playbook, which gates the
  /// delta-vs-full search speedup without the attack-generation cost.
  std::vector<Score> evaluate(const std::vector<Candidate>& candidates,
                              const OfferedLoad& offered) const;

  /// Search the response space for one attack shape.
  PlaybookEntry respond(const AttackSpec& attack) const;

  /// A playbook over a catalog of attack shapes.
  Playbook build(std::span<const AttackSpec> attacks) const;

 private:
  /// Per-offered-load precomputation shared by every candidate: the base
  /// catchment of each offered block and the base config's raw sums.
  /// One pass over the offered rows, memoized so repeated evaluate()
  /// calls against the same load (stage 1 + stage 2 of a search, or a
  /// bench loop) don't re-pay it. Pure function of the offered load, so
  /// the memo can't change any result.
  struct Prepared {
    std::vector<anycast::SiteId> base_sites;
    Score base_raw;  // site sums before finalize()
  };
  std::shared_ptr<const Prepared> prepare(const OfferedLoad& offered) const;
  std::vector<Score> evaluate(const std::vector<Candidate>& candidates,
                              const OfferedLoad& offered,
                              const Prepared& prep) const;

  const analysis::Scenario* scenario_;
  anycast::Deployment base_;
  PlaybookConfig config_;
  CapacityPlan capacity_;
  std::shared_ptr<const bgp::RoutingTable> base_table_;
  dnsload::LoadModel base_load_;

  /// Recycled routing sessions for the delta evaluation path. A fresh
  /// engine pays one from-scratch propagation before its first delta; a
  /// parked one resumes exactly where it stopped — its configuration,
  /// table, and that table's raw sums ride along — so repeated
  /// evaluate() calls (one per attack shape, times worker chunks) never
  /// pay a rewind-to-base apply. Resuming mid-space is safe because
  /// every candidate's score is a pure function of (its table, the
  /// offered load); the session state only decides how much work the
  /// *next* delta costs, not what it computes. Guarded by
  /// sessions_mutex_.
  struct ParkedSession {
    std::unique_ptr<bgp::RoutingEngine> engine;
    anycast::Deployment config;  // the engine's current configuration
    std::shared_ptr<const bgp::RoutingTable> table;
    Score raw;                // `table`'s sums, valid for memo_id's load
    std::uint64_t memo_id = 0;
  };
  mutable std::mutex sessions_mutex_;
  mutable std::vector<ParkedSession> sessions_;

  /// prepare() memo (guarded by memo_mutex_), keyed on
  /// OfferedLoad::memo_id; a miss just recomputes.
  mutable std::mutex memo_mutex_;
  mutable std::uint64_t memo_key_ = 0;
  mutable std::shared_ptr<const Prepared> memo_;
};

}  // namespace vp::agility
