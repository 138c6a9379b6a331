// Microbenchmarks (google-benchmark): the hot paths of the pipeline —
// packet build/parse, checksum, a full probe round-trip
// through the simulated dataplane, and BGP route computation.
#include <benchmark/benchmark.h>

#include "analysis/scenario.hpp"
#include "bgp/catchment_resolver.hpp"
#include "bgp/routing_engine.hpp"
#include "net/checksum.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"

using namespace vp;

namespace {

const analysis::Scenario& shared_scenario() {
  static const analysis::Scenario scenario{[] {
    analysis::ScenarioConfig config = analysis::ScenarioConfig::from_env();
    config.scale = 0.1;  // micro benches need a topology, not a big one
    return config;
  }()};
  return scenario;
}

void BM_ChecksumPerByte(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  util::Rng rng{1};
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChecksumPerByte)->Arg(48)->Arg(512)->Arg(4096);

// The probe engine builds every probe into one reused per-shard buffer.
void BM_BuildEchoRequest(benchmark::State& state) {
  net::ProbePayload payload;
  payload.measurement_id = 7;
  payload.original_target = net::Ipv4Address{1, 2, 3, 4};
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    net::build_echo_request_into(bytes, net::Ipv4Address{192, 0, 2, 1},
                                 payload.original_target, 1, 2, payload);
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BuildEchoRequest);

// The collector-side parse the engine runs once per probe attempt.
void BM_ParseReply(benchmark::State& state) {
  net::ProbePayload payload;
  payload.measurement_id = 7;
  payload.original_target = net::Ipv4Address{1, 2, 3, 4};
  std::vector<std::uint8_t> request;
  net::build_echo_request_into(request, net::Ipv4Address{192, 0, 2, 1},
                               payload.original_target, 1, 2, payload);
  const auto ip = net::Ipv4Header::parse(request);
  const auto icmp = net::parse_icmp_echo_view(
      std::span{request}.subspan(net::Ipv4Header::kSize));
  std::vector<std::uint8_t> reply;
  net::build_echo_reply_into(reply, *ip, *icmp, payload.original_target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::parse_reply_view(reply));
  }
}
BENCHMARK(BM_ParseReply);

std::vector<net::Block24> sample_blocks(const analysis::Scenario& scenario,
                                        std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<net::Block24> blocks;
  for (int i = 0; i < 1024; ++i)
    blocks.push_back(
        scenario.topo().blocks()[rng.below(scenario.topo().block_count())]
            .block);
  return blocks;
}

const bgp::RoutingTable& broot_routes() {
  static const auto routes_ptr =
      shared_scenario().route(shared_scenario().broot());
  return *routes_ptr;
}

// Cached vs uncached per-probe resolution. The CI gate
// (tools/bench_compare.py) asserts the cached variants beat the uncached
// ones by the ratios recorded in baseline.json, so the speedup — not
// just the absolute time — is regression-checked.
void BM_GroundTruthSiteLookup(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const bgp::RoutingTable& routes = broot_routes();
  (void)routes.catchment_resolver();  // build outside the timed loop
  const auto blocks = sample_blocks(scenario, 3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scenario.internet().ground_truth_site(
        routes, blocks[i++ & 1023], 0));
  }
}
BENCHMARK(BM_GroundTruthSiteLookup);

void BM_GroundTruthSiteUncached(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const bgp::RoutingTable& routes = broot_routes();
  const auto blocks = sample_blocks(scenario, 3);
  const sim::FlipModel& flips = scenario.internet().flips();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flips.site_in_round_uncached(routes, blocks[i++ & 1023], 0));
  }
}
BENCHMARK(BM_GroundTruthSiteUncached);

void BM_SiteForBlock(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const bgp::RoutingTable& routes = broot_routes();
  const bgp::CatchmentResolver& resolver = routes.catchment_resolver();
  const auto blocks = sample_blocks(scenario, 5);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.stable_site(blocks[i++ & 1023]));
  }
}
BENCHMARK(BM_SiteForBlock);

void BM_SiteForBlockUncached(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const bgp::RoutingTable& routes = broot_routes();
  const auto blocks = sample_blocks(scenario, 5);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routes.site_for_block(blocks[i++ & 1023]));
  }
}
BENCHMARK(BM_SiteForBlockUncached);

// One probe attempt as a shard of the engine runs it: build into a reused
// buffer, inject, deliveries and counts into caller-owned scratch.
void BM_ProbeRoundTrip(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const bgp::RoutingTable& routes = broot_routes();
  (void)routes.catchment_resolver();
  const auto& hitlist = scenario.hitlist();
  std::vector<std::uint8_t> probe;
  std::vector<sim::DeliveryView> deliveries;
  std::vector<std::uint8_t> reply;
  sim::DataplaneTally tally;
  std::size_t i = 0;
  std::uint64_t replies = 0;
  for (auto _ : state) {
    const auto& entry = hitlist.entries()[i++ % hitlist.size()];
    net::ProbePayload payload;
    payload.measurement_id = 1;
    payload.original_target = entry.target;
    net::build_echo_request_into(probe, scenario.broot().measurement_address,
                                 entry.target, 1,
                                 static_cast<std::uint16_t>(i), payload);
    scenario.internet().probe_into(routes, probe, {}, 0, deliveries, reply,
                                   tally);
    replies += deliveries.size();
    benchmark::DoNotOptimize(deliveries.data());
    benchmark::DoNotOptimize(reply.data());
    benchmark::ClobberMemory();
  }
  sim::InternetSim::flush(tally);
  state.counters["replies_per_probe"] =
      benchmark::Counter(static_cast<double>(replies),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ProbeRoundTrip);

void BM_ComputeRoutes(benchmark::State& state) {
  // Deliberately bypasses the scenario's route cache: this measures the
  // full propagation, which a cached scenario.route() no longer pays.
  const auto& scenario = shared_scenario();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bgp::RoutingEngine{scenario.topo(), scenario.broot()}.full());
  }
  state.counters["ases"] =
      static_cast<double>(scenario.topo().as_count());
}
BENCHMARK(BM_ComputeRoutes)->Unit(benchmark::kMillisecond);

// One full measurement round, sharded over Arg(0) probe workers. The
// acceptance bar for the parallel engine is >= 2.5x round throughput at
// 8 threads vs 1 on multicore hardware; compare the per-iteration times
// (the result is bit-identical at every thread count, so this measures
// pure engine overhead/speedup). Timed on the wall clock (UseRealTime):
// the main thread's CPU time leaves out the other workers. One untimed
// warm-up round goes first.
void BM_FullMeasurementRound(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const bgp::RoutingTable& routes = broot_routes();
  core::RoundSpec spec;
  spec.threads = static_cast<unsigned>(state.range(0));
  std::uint32_t round = 0;
  const auto run_round = [&] {
    spec.probe.measurement_id = 100 + round;
    spec.round = round++;
    return scenario.engine().run(routes, spec);
  };
  benchmark::DoNotOptimize(run_round());  // the untimed warm-up
  for (auto _ : state) benchmark::DoNotOptimize(run_round());
  state.counters["blocks"] =
      static_cast<double>(scenario.hitlist().size());
  state.counters["blocks_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * scenario.hitlist().size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullMeasurementRound)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

}  // namespace

BENCHMARK_MAIN();
