// Deployment-sweep benchmarks for the route cache (google-benchmark).
//
// The sweep loops (prepending playbooks, placement searches) are where
// bgp::RouteCache earns its keep: every configuration after the first
// visit is a hash lookup instead of a full three-stage propagation.
// BM_PrependSweep{Cached,Uncached} measure exactly that loop — the same
// nine-site prepend sweep routed through a warm cache vs computed fresh
// — and tools/bench_compare.py gates the ratio against baseline.json.
// BM_ResolverBuild pins the one-time cost of precomputing a
// block->site catchment table.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "analysis/scenario.hpp"
#include "bgp/catchment_resolver.hpp"
#include "bgp/route_cache.hpp"
#include "bgp/routing_engine.hpp"
#include "util/rng.hpp"

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

// The sweep a prepending playbook runs: every site of the Tangled
// testbed prepended at depths 1..3, plus the unmodified deployment.
std::vector<anycast::Deployment> sweep_deployments() {
  const anycast::Deployment& base = shared_scenario().tangled();
  std::vector<anycast::Deployment> sweep;
  sweep.push_back(base);
  for (const auto& site : base.sites)
    for (int depth = 1; depth <= 3; ++depth)
      sweep.push_back(base.with_prepend(site.code, depth));
  return sweep;
}

bgp::RoutingOptions sweep_options() {
  const auto& scenario = shared_scenario();
  bgp::RoutingOptions options;
  options.tiebreak_salt =
      util::hash_combine(scenario.config().seed, analysis::kMayEpoch);
  return options;
}

void BM_PrependSweepUncached(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const auto sweep = sweep_deployments();
  const bgp::RoutingOptions options = sweep_options();
  for (auto _ : state) {
    for (const auto& deployment : sweep)
      benchmark::DoNotOptimize(
          bgp::RoutingEngine{scenario.topo(), deployment, options}.full());
  }
  state.counters["configs"] = static_cast<double>(sweep.size());
}
BENCHMARK(BM_PrependSweepUncached)->Unit(benchmark::kMillisecond);

void BM_PrependSweepCached(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const auto sweep = sweep_deployments();
  const bgp::RoutingOptions options = sweep_options();
  bgp::RouteCache cache{scenario.topo()};
  for (const auto& deployment : sweep)
    (void)cache.routes(deployment, options);  // warm outside the timed loop
  for (auto _ : state) {
    for (const auto& deployment : sweep)
      benchmark::DoNotOptimize(cache.routes(deployment, options));
  }
  state.counters["configs"] = static_cast<double>(sweep.size());
}
BENCHMARK(BM_PrependSweepCached)->Unit(benchmark::kMillisecond);

// One-time cost of precomputing the block->site table: the price a round
// pays (once, under std::call_once) before every subsequent lookup drops
// to a vector load.
void BM_ResolverBuild(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const auto routes_ptr = scenario.route(scenario.broot());
  const bgp::RoutingTable& routes = *routes_ptr;
  for (auto _ : state) {
    const bgp::CatchmentResolver resolver{routes};
    benchmark::DoNotOptimize(resolver.bytes());
  }
  state.counters["blocks"] =
      static_cast<double>(scenario.topo().block_count());
}
BENCHMARK(BM_ResolverBuild)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
