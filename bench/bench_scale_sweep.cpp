// Scale sweep over generated Internets (google-benchmark).
//
// The paper probes 6.4M /24 blocks per round; the default scenario keeps
// every ratio at ~120k blocks (EXPERIMENTS.md deviation #1). These
// benchmarks close that gap: BM_GenerateScaleTopology pins the sharded
// generator's throughput and per-AS memory, and BM_ScaleProbeRound runs
// full Verfploeter rounds over generated Internets from the scenario
// default (120k) up to the paper's 6.4M blocks. tools/bench_compare.py
// gates the sweep via `scale_gates` in bench/baseline.json: per-block
// probe throughput at 6.4M must stay within a constant factor of the
// 120k figure (near memory bandwidth, not super-linear in topology
// size), and the SoA routing-table footprint must stay bounded per AS.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "anycast/deployment.hpp"
#include "bgp/routing_engine.hpp"
#include "core/probe_engine.hpp"
#include "hitlist/hitlist.hpp"
#include "sim/internet.hpp"
#include "topology/scale_generator.hpp"
#include "util/rng.hpp"
#include "util/round_arena.hpp"

using namespace vp;

namespace {

constexpr std::uint64_t kSeed = 42;
constexpr double kBlocksPerAs = 13.0;  // paper-like allocation ratio

topology::ScaleConfig config_for_blocks(std::uint64_t blocks) {
  topology::ScaleConfig config;
  config.seed = kSeed;
  config.target_blocks = static_cast<std::uint32_t>(blocks);
  config.as_count = static_cast<std::uint32_t>(
      static_cast<double>(blocks) / kBlocksPerAs);
  return config;
}

/// Everything one probe round needs, built once per block count. Only a
/// single world is kept alive (the 6.4M one is ~GB-scale); benchmarks
/// run in ascending block order so each world is built exactly once.
/// Rounds share the world's arena, exactly as a campaign or the daemon
/// would, and the world runs one untimed warm-up round when it is built:
/// every timed round is arena-warm, even where the minimum time allows
/// only one (the 6.4M point).
struct ScaleWorld {
  topology::Topology topo;
  anycast::Deployment deployment;
  std::unique_ptr<sim::InternetSim> internet;
  hitlist::Hitlist hitlist;
  std::unique_ptr<core::ProbeEngine> engine;
  std::shared_ptr<const bgp::RoutingTable> routes;
  util::RoundArena arena;
  std::uint32_t next_round = 0;

  explicit ScaleWorld(std::uint64_t blocks)
      : topo(topology::generate_scale_topology(config_for_blocks(blocks))) {
    deployment = anycast::make_generated(topo, 9, kSeed);
    sim::InternetConfig internet_config;
    internet_config.responsiveness.seed = util::hash_combine(kSeed, 1);
    internet_config.flips.seed = util::hash_combine(kSeed, 2);
    internet = std::make_unique<sim::InternetSim>(topo, internet_config);
    hitlist::HitlistConfig hitlist_config;
    hitlist_config.seed = util::hash_combine(kSeed, 3);
    hitlist = hitlist::Hitlist::build(topo, internet->responsiveness(),
                                      hitlist_config, /*threads=*/0);
    engine = std::make_unique<core::ProbeEngine>(*internet, hitlist);
    routes = bgp::RoutingEngine{topo, deployment}.full();
    run_round();  // the untimed warm-up
  }

  core::RoundResult run_round() {
    core::RoundSpec spec;
    spec.probe.measurement_id = 9600 + next_round;
    spec.round = next_round++;
    spec.threads = 0;  // all hardware threads
    spec.arena = &arena;
    return engine->run(*routes, spec);
  }
};

ScaleWorld& world_for(std::uint64_t blocks) {
  static std::uint64_t current_blocks = 0;
  static std::unique_ptr<ScaleWorld> current;
  if (current == nullptr || current_blocks != blocks) {
    current.reset();  // free the old world before building the next
    current = std::make_unique<ScaleWorld>(blocks);
    current_blocks = blocks;
  }
  return *current;
}

void BM_GenerateScaleTopology(benchmark::State& state) {
  const auto blocks = static_cast<std::uint64_t>(state.range(0));
  const topology::ScaleConfig config = config_for_blocks(blocks);
  std::size_t memory = 0;
  std::uint64_t realized = 0;
  for (auto _ : state) {
    const topology::Topology topo =
        topology::generate_scale_topology(config);
    memory = topo.memory_bytes();
    realized = topo.block_count();
    benchmark::DoNotOptimize(realized);
  }
  state.counters["blocks_per_sec"] = benchmark::Counter(
      static_cast<double>(realized), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["bytes_per_as"] =
      static_cast<double>(memory) / static_cast<double>(config.as_count);
}
BENCHMARK(BM_GenerateScaleTopology)
    ->Arg(120'000)
    ->Arg(1'300'000)
    ->Unit(benchmark::kMillisecond);

// Wall-clock time (UseRealTime): the round's probe workers run on every
// hardware thread, so the main thread's CPU time would leave out most of
// the round.
void BM_ScaleProbeRound(benchmark::State& state) {
  const auto blocks = static_cast<std::uint64_t>(state.range(0));
  ScaleWorld& world = world_for(blocks);
  std::uint64_t probed = 0;
  for (auto _ : state) {
    probed = world.run_round().map.blocks_probed;
    benchmark::DoNotOptimize(probed);
  }
  state.counters["blocks_per_sec"] = benchmark::Counter(
      static_cast<double>(probed), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["table_bytes_per_as"] =
      static_cast<double>(world.routes->memory_bytes()) /
      static_cast<double>(world.topo.as_count());
}
BENCHMARK(BM_ScaleProbeRound)
    ->Arg(120'000)
    ->Arg(1'300'000)
    ->Arg(6'400'000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
