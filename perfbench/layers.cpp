// The traced run's per-layer pass. Each layer's public call is timed
// directly under a span named after it; run.py reports the median span.
#include <algorithm>
#include <filesystem>
#include <sstream>

#include "analysis/load_analysis.hpp"
#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/dataset_io.hpp"
#include "core/journal.hpp"
#include "topology/scale_generator.hpp"
#include "trace.hpp"
#include "util/round_arena.hpp"

namespace perfbench {
namespace {

constexpr int kReps = 2;

/// Topology generation and hitlist build, as Scenario does them.
void setup_layers(const World& world) {
  const analysis::Scenario& scenario = *world.scenario;
  topology::ScaleConfig gen;
  gen.seed = scenario.config().seed;
  gen.as_count = kGeneratedAses;
  gen.target_blocks = static_cast<std::uint32_t>(
      std::max(2000.0, 13.0 * kGeneratedAses * scenario.config().scale));
  for (int rep = 0; rep < 2; ++rep) {
    Span span{"topology.generate"};
    const topology::Topology topo = topology::generate_scale_topology(gen);
  }
  hitlist::HitlistConfig config;
  config.seed = derive(scenario.config().seed, 0x41717);
  for (int rep = 0; rep < 2; ++rep) {
    Span span{"hitlist.build"};
    const hitlist::Hitlist hitlist = hitlist::Hitlist::build(
        scenario.topo(), scenario.internet().responsiveness(), config);
  }
  bgp::RoutingEngine engine{
      scenario.topo(), world.deployment(),
      scenario.delta_session(world.deployment()).engine().options()};
  for (int rep = 0; rep < kReps; ++rep) {
    Span span{"bgp.route_full"};
    engine.full();
  }
}

/// One arena-warm round, then what is done with its result.
void round_layers(const World& world, Report& report) {
  const analysis::Scenario& scenario = *world.scenario;
  const core::ProbeEngine engine{scenario.internet(), scenario.hitlist()};
  core::Campaign policy{engine, *world.routes};
  policy.rounds(kReps + 1).threads(kProbeThreads);
  util::RoundArena arena;
  core::RoundResult result;
  for (std::uint32_t r = 0; r <= kReps; ++r) {
    core::RoundSpec spec = policy.spec_for(r);
    spec.arena = &arena;
    Span span{r == 0 ? "core.round_cold" : "core.round"};
    result = engine.run(*world.routes, spec);
  }

  for (int rep = 0; rep < kReps; ++rep) {
    Span span{"core.encode_round"};
    const std::string frame = core::CampaignJournal::encode_round(0, result);
    report.counters["core.round_record_bytes"] =
        static_cast<double>(frame.size());
  }
  const std::string path = world.out_dir + "/layers.journal";
  {
    core::CampaignJournal journal;
    const bool opened =
        journal.open(path, core::JournalManifest{policy.fingerprint(), kReps},
                     false)
            .status == core::JournalStatus::kFresh;
    bool appended = opened;
    for (std::uint32_t r = 0; opened && r < kReps; ++r) {
      Span span{"core.journal_append"};
      appended = journal.append_round(r, result) && appended;
    }
    report.check("layers.journal_append", appended);
  }
  std::filesystem::remove(path);

  for (int rep = 0; rep < kReps; ++rep) {
    Span span{"core.csv_write"};
    std::ostringstream out;
    core::write_catchment_csv(out, result, world.deployment());
  }
  const dnsload::LoadModel load = scenario.broot_load(analysis::kMayEpoch);
  for (int rep = 0; rep < kReps; ++rep) {
    Span span{"analysis.predict_load"};
    analysis::predict_load(load, result.map, world.deployment().sites.size());
  }
}

/// The /load requests' routing deltas, replayed on one session: to the
/// seeded configuration and back, twice.
void delta_layers(const World& world, Report& report) {
  analysis::DeltaSession session =
      world.scenario->delta_session(world.deployment());
  session.engine().full();
  const anycast::Deployment seeded =
      apply_config(world.deployment(), load_config(world));
  for (int step = 0; step < 4; ++step) {
    const anycast::ConfigDelta delta = anycast::ConfigDelta::diff(
        session.deployment(), step % 2 == 0 ? seeded : world.deployment());
    bgp::ApplyResult applied;
    {
      Span span{"bgp.delta_apply"};
      applied = session.apply(delta);
    }
    report.layer["bgp.recomputed_ases"].push_back(
        static_cast<double>(applied.recomputed_ases));
    report.layer["bgp.changed_ases"].push_back(
        static_cast<double>(applied.changed_ases.size()));
  }
}

/// The two halves of respond(): building the offered load and scoring the
/// stage-1 candidates.
void agility_layers(const World& world, const WhatifJob& whatif,
                    Report& report) {
  const dnsload::LoadModel load =
      world.scenario->broot_load(analysis::kMayEpoch);
  const std::vector<agility::Candidate> candidates =
      whatif.optimizer().enumerate_candidates();
  report.counters["agility.configs_evaluated"] =
      static_cast<double>(candidates.size());
  for (std::uint64_t i = 0; i < 2; ++i) {
    agility::OfferedLoad offered;
    {
      Span span{"agility.offered_load"};
      offered = agility::offered_load(world.scenario->topo(), load,
                                      *world.routes, whatif.attack(i));
    }
    Span span{"agility.evaluate"};
    whatif.optimizer().evaluate(candidates, offered);
  }
}

}  // namespace

void run_layers(const World& world, const WhatifJob& whatif, Report& report) {
  Span span{"layers"};
  setup_layers(world);
  round_layers(world, report);
  delta_layers(world, report);
  agility_layers(world, whatif, report);
}

}  // namespace perfbench
