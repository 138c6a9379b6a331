// Playbook-search benchmarks (google-benchmark).
//
// The PlaybookOptimizer's pitch is that a load-aware TE search is cheap
// enough for CI because candidates are evaluated through one incremental
// routing session (and scored from changed block ranges) instead of
// re-routing the Internet per configuration. These pin that down on the
// Tangled deployment under a polarized attack:
//   BM_PlaybookDelta1Site / BM_PlaybookFull1Site
//       one site's prepend menu (depths 1..3 + baseline, the paper's
//       Figs 5-6 TE knob), the smallest useful search — delta session
//       vs every table and score recomputed from scratch. A prepend
//       change re-converges only the site's upstream cone (~9% of
//       ASes here), so this is where the delta session's advantage is
//       structural (>= 3x gated; withdrawal is deliberately excluded —
//       re-flooding a withdrawn site's cone costs as much as a full
//       reroute either way, see BM_DeltaWithdraw).
//   BM_PlaybookDelta28 / BM_PlaybookFull28
//       the 28-config prepend sweep (9 sites x depths 1..3 + baseline),
//       the optimizer's default path vs its use_delta = false reference
//       (every candidate routed from scratch). Walking
//       *between* sites unions two frontiers per boundary step, so the
//       ratio here is lower (~3x measured, gated >= 2.5x as a
//       regression tripwire).
// tools/bench_compare.py gates both same-run full/delta ratios via
// baseline.json's "agility_gates"; each benchmark also reports
// configs/s.
#include <benchmark/benchmark.h>

#include <vector>

#include "agility/attack.hpp"
#include "agility/playbook.hpp"
#include "analysis/scenario.hpp"
#include "anycast/deployment.hpp"

using namespace vp;

namespace {

const analysis::Scenario& shared_scenario() {
  static const analysis::Scenario scenario{[] {
    analysis::ScenarioConfig config = analysis::ScenarioConfig::from_env();
    config.scale = 0.1;
    return config;
  }()};
  return scenario;
}

agility::PlaybookConfig search_config(bool use_delta) {
  agility::PlaybookConfig config;
  config.max_prepend = 3;
  config.allow_withdraw = false;  // the 28-config prepend sweep shape
  config.strategy = agility::SearchStrategy::kStaged;
  config.threads = 1;
  config.use_delta = use_delta;
  return config;
}

agility::AttackSpec bench_attack() {
  agility::AttackSpec spec;
  spec.kind = agility::AttackKind::kPolarized;
  spec.seed = 1;
  return spec;
}

/// Offered load under the bench attack, against the Tangled baseline.
const agility::OfferedLoad& shared_offered() {
  static const agility::OfferedLoad offered = [] {
    const auto& scenario = shared_scenario();
    return agility::offered_load(scenario.topo(),
                                 scenario.broot_load(0x20170515ull),
                                 *scenario.route(scenario.tangled()),
                                 bench_attack());
  }();
  return offered;
}

void run_search(benchmark::State& state,
                const std::vector<agility::Candidate>& candidates,
                bool use_delta) {
  const agility::PlaybookOptimizer optimizer{
      shared_scenario(), shared_scenario().tangled(),
      search_config(use_delta)};
  const agility::OfferedLoad& offered = shared_offered();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.evaluate(candidates, offered));
  }
  state.counters["configs"] = static_cast<double>(candidates.size());
  state.counters["configs_per_sec"] = benchmark::Counter(
      static_cast<double>(candidates.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

/// One site's prepend menu: depths 1..5 plus the no-action baseline —
/// the paper's Fig-5 sweep as a search workload. Depth 0 -> 1 vacates
/// the site's whole catchment (the expensive flip); each further depth
/// moves an already-shrunken cone, which is where the delta session
/// pulls away from per-candidate full recomputes.
std::vector<agility::Candidate> one_site_candidates() {
  const auto site = *shared_scenario().tangled().site_by_code("MIA");
  std::vector<agility::Candidate> candidates;
  candidates.push_back({anycast::ConfigDelta{}, "baseline"});
  for (int depth = 1; depth <= 5; ++depth)
    candidates.push_back(
        {anycast::ConfigDelta::set_prepend(site, depth),
         "MIA+" + std::to_string(depth)});
  return candidates;
}

void BM_PlaybookDelta1Site(benchmark::State& state) {
  run_search(state, one_site_candidates(), /*use_delta=*/true);
}
BENCHMARK(BM_PlaybookDelta1Site)->Unit(benchmark::kMillisecond);

void BM_PlaybookFull1Site(benchmark::State& state) {
  run_search(state, one_site_candidates(), /*use_delta=*/false);
}
BENCHMARK(BM_PlaybookFull1Site)->Unit(benchmark::kMillisecond);

void BM_PlaybookDelta28(benchmark::State& state) {
  const agility::PlaybookOptimizer optimizer{
      shared_scenario(), shared_scenario().tangled(), search_config(true)};
  run_search(state, optimizer.enumerate_candidates(), /*use_delta=*/true);
}
BENCHMARK(BM_PlaybookDelta28)->Unit(benchmark::kMillisecond);

void BM_PlaybookFull28(benchmark::State& state) {
  const agility::PlaybookOptimizer optimizer{
      shared_scenario(), shared_scenario().tangled(), search_config(false)};
  run_search(state, optimizer.enumerate_candidates(), /*use_delta=*/false);
}
BENCHMARK(BM_PlaybookFull28)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
