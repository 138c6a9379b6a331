// The what-if job: load-aware TE search under attack (Anycast Agility).
#include <iterator>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

agility::PlaybookConfig search_config() {
  agility::PlaybookConfig config;
  config.strategy = agility::SearchStrategy::kStaged;
  config.threads = kThreads;
  return config;
}

constexpr agility::AttackKind kKinds[] = {
    agility::AttackKind::kPolarized, agility::AttackKind::kFlashCrowd,
    agility::AttackKind::kSpoofedFlood, agility::AttackKind::kVolumetric};

}  // namespace

WhatifJob::WhatifJob(const World& world)
    : world_(world),
      optimizer_(*world.scenario, world.deployment(), search_config(),
                 analysis::kMayEpoch),
      base_load_(world.scenario->broot_load(analysis::kMayEpoch)) {}

agility::AttackSpec WhatifJob::attack(std::uint64_t i) const {
  agility::AttackSpec spec;
  spec.kind = kKinds[i % std::size(kKinds)];
  spec.seed = derive(world_.seed, 0xa77ac000u + i);
  return spec;
}

void WhatifJob::run(int attacks, Report& report) {
  for (int done = 0; done < attacks; ++done) {
    const agility::AttackSpec spec = attack(next_attack_++);
    const Clock::time_point t0 = Clock::now();
    agility::PlaybookEntry entry;
    {
      Span span{"agility.respond"};
      entry = optimizer_.respond(spec);
    }
    report.samples["respond_ms"].push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());

    // Reference check: the best response's score, recomputed from a fresh
    // full table of that configuration, must equal the search's score.
    Span span{"whatif.check"};
    const agility::OfferedLoad offered = agility::offered_load(
        world_.scenario->topo(), base_load_, *world_.routes, spec);
    const auto table = world_.scenario->route_delta(
        world_.deployment(), entry.best().candidate.delta);
    const bool ok =
        optimizer_.score_table(*table, offered) == entry.best().score;
    report.check("whatif.best_matches_reference", ok);
    report.attempted += 1;
    report.failed += ok ? 0 : 1;
  }
}

}  // namespace perfbench
