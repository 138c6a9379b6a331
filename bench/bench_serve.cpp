// Serving-path benchmark for verfploeterd (google-benchmark).
//
// The daemon's query surface is an O(1) catchment lookup behind a
// shared_ptr swap — the bar (ISSUE, DESIGN.md §15) is >= 100k /block
// lookups/s, and it must hold *while a measurement round is running*,
// not just on an idle daemon. Both variants drive Daemon::handle()
// in-process (no sockets: the socket layer is one blocking accept loop
// and deliberately not the serving economics), publishing a
// lookups_per_sec counter that tools/bench_compare.py gates via
// "serve_gates" in bench/baseline.json.
#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/scenario.hpp"
#include "net/http_server.hpp"
#include "service/daemon.hpp"

using namespace vp;

namespace {

const analysis::Scenario& scenario() {
  static const analysis::Scenario s{[] {
    analysis::ScenarioConfig config;
    config.scale = 0.05;
    config.seed = 42;
    return config;
  }()};
  return s;
}

service::DaemonConfig daemon_config(std::uint32_t rounds) {
  service::DaemonConfig config;
  config.probe.measurement_id = 100;
  config.rounds = rounds;
  config.threads = 2;
  return config;
}

/// Pre-parsed /block requests covering every mapped block, so the loop
/// measures dispatch + lookup, not request-string formatting.
std::vector<net::HttpRequest> block_requests(const service::Daemon& daemon) {
  std::vector<net::HttpRequest> requests;
  const auto map = daemon.current_map();
  for (const auto& [block, site] : map->result.map.entries()) {
    net::HttpRequest request;
    request.method = "GET";
    request.path = "/block/" + block.address(1).to_string();
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Idle daemon: one good round published, then nothing but lookups.
void BM_ServeBlockLookup(benchmark::State& state) {
  static service::Daemon daemon{scenario(), scenario().broot(),
                                daemon_config(1)};
  static const bool ran = daemon.run_rounds();
  static const std::vector<net::HttpRequest> requests =
      block_requests(daemon);
  if (!ran || requests.empty()) {
    state.SkipWithError("round did not publish a map");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const net::HttpResponse response =
        daemon.handle(requests[i++ % requests.size()]);
    benchmark::DoNotOptimize(response.body_view().data());
    if (response.status != 200) {
      state.SkipWithError("lookup failed");
      return;
    }
  }
  state.counters["lookups_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeBlockLookup);

/// The contended case: lookups racing a live round loop (continuous
/// mode, back-to-back rounds). This is the configuration the TSan lane
/// runs under and the one the 100k/s bar actually has to survive.
void BM_ServeBlockLookupWhileMeasuring(benchmark::State& state) {
  service::Daemon daemon{scenario(), scenario().broot(), daemon_config(0)};
  std::thread rounds{[&daemon] { daemon.run_rounds(); }};
  // Wait for the first publish so every lookup hits a real map.
  while (!daemon.current_map())
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  const std::vector<net::HttpRequest> requests = block_requests(daemon);

  std::size_t i = 0;
  for (auto _ : state) {
    const net::HttpResponse response =
        daemon.handle(requests[i++ % requests.size()]);
    benchmark::DoNotOptimize(response.body_view().data());
  }
  state.counters["lookups_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);

  daemon.request_stop();
  rounds.join();
}
BENCHMARK(BM_ServeBlockLookupWhileMeasuring);

}  // namespace

BENCHMARK_MAIN();
