// Microbenchmarks for the obs metrics layer (google-benchmark).
//
// Two questions, answered separately:
//  1. What do the primitives cost? (counter add, histogram observe,
//     handle lookup, snapshot+export) — nanosecond-scale, so regressions
//     in the striping or the enabled-check show up immediately.
//  2. What does the whole layer cost a real measurement round?
//     BM_RoundMetrics runs BM_FullMeasurementRound's workload with
//     metrics enabled vs disabled; the budget (ISSUE/DESIGN.md §11) is
//     < 2% overhead. tools/bench_compare.py gates both in CI against
//     bench/baseline.json.
#include <benchmark/benchmark.h>

#include <string>

#include "analysis/scenario.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

using namespace vp;

namespace {

void BM_CounterAdd(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("vp_bench_total");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

void BM_CounterAddDisabled(benchmark::State& state) {
  obs::MetricsRegistry reg;
  reg.set_enabled(false);
  obs::Counter& c = reg.counter("vp_bench_total");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAddDisabled);

// Contention check: all threads hammer ONE counter. Striping should keep
// per-add cost flat versus the single-threaded number.
void BM_CounterAddContended(benchmark::State& state) {
  static obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("vp_bench_contended_total");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAddContended)->Threads(4);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("vp_bench_ms", obs::latency_buckets_ms());
  double v = 0.0;
  for (auto _ : state) {
    h.observe(v);
    v += 0.7;
    if (v > 200000.0) v = 0.0;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramObserve);

// Name -> handle lookup (shard mutex + map find). Paid once per round
// per metric, never per probe; still worth pinning.
void BM_HandleLookup(benchmark::State& state) {
  obs::MetricsRegistry reg;
  reg.counter("vp_bench_total");
  for (auto _ : state) {
    benchmark::DoNotOptimize(&reg.counter("vp_bench_total"));
  }
}
BENCHMARK(BM_HandleLookup);

void BM_SnapshotAndExport(benchmark::State& state) {
  obs::MetricsRegistry reg;
  for (int i = 0; i < 40; ++i)
    reg.counter("vp_bench_total{i=\"" + std::to_string(i) + "\"}").add(i);
  for (int i = 0; i < 8; ++i)
    reg.histogram("vp_bench_ms{i=\"" + std::to_string(i) + "\"}",
                  obs::latency_buckets_ms())
        .observe(i * 3.0);
  for (auto _ : state) {
    const obs::Snapshot snap = reg.snapshot();
    benchmark::DoNotOptimize(obs::to_json(snap));
    benchmark::DoNotOptimize(obs::to_prometheus(snap));
  }
}
BENCHMARK(BM_SnapshotAndExport)->Unit(benchmark::kMicrosecond);

// The number the <2% budget is judged on: a full measurement round
// (same workload as bench_micro's BM_FullMeasurementRound) with the
// global registry enabled (Arg 1) vs disabled (Arg 0). Compare the two
// per-iteration times; CI recomputes the ratio from baseline.json.
void BM_RoundMetrics(benchmark::State& state) {
  static const analysis::Scenario scenario{[] {
    analysis::ScenarioConfig config = analysis::ScenarioConfig::from_env();
    config.scale = 0.1;
    return config;
  }()};
  static const auto routes_ptr = scenario.route(scenario.broot());
  const bgp::RoutingTable& routes = *routes_ptr;
  obs::metrics().set_enabled(state.range(0) != 0);
  core::RoundSpec spec;
  spec.threads = 2;
  std::uint32_t round = 0;
  for (auto _ : state) {
    spec.probe.measurement_id = 100 + round;
    spec.round = round++;
    benchmark::DoNotOptimize(scenario.engine().run(routes, spec));
  }
  obs::metrics().set_enabled(true);
}
BENCHMARK(BM_RoundMetrics)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)
    ->Arg(1);

}  // namespace

BENCHMARK_MAIN();
