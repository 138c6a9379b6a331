// Shared plumbing for the per-table / per-figure benchmark harnesses.
//
// Each bench binary rebuilds one table or figure from the paper: it wires
// a Scenario, runs the relevant measurements, prints the paper-style rows,
// and finishes with a "paper vs measured" shape check. Absolute numbers
// differ (our substrate is a simulator, DESIGN.md §2); what must hold is
// the *shape* — who wins, by roughly what factor, where crossovers fall.
//
// Environment knobs (analysis::ScenarioConfig::from_env): VP_SCALE
// (default 1.0 = ~120k blocks, or the bench's own default), VP_SEED.
#pragma once

#include <cstdio>
#include <string>

#include "analysis/scenario.hpp"
#include "core/round.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace vp::bench {

/// Accumulates the engine's RoundObserver callbacks across rounds:
/// probes sent and cleaning totals. Benches read these instead of
/// re-deriving the counts from each RoundResult.
class RoundTally : public core::RoundObserver {
 public:
  void on_round_complete(const core::RoundSpec&,
                         const core::RoundResult& result) override {
    ++rounds;
    probes_sent += result.map.probes_sent;
    const core::CleaningStats& c = result.map.cleaning;
    cleaning.raw_replies += c.raw_replies;
    cleaning.malformed += c.malformed;
    cleaning.wrong_id += c.wrong_id;
    cleaning.unsolicited += c.unsolicited;
    cleaning.duplicates += c.duplicates;
    cleaning.late += c.late;
    cleaning.kept += c.kept;
  }

  std::uint64_t rounds = 0;
  std::uint64_t probes_sent = 0;
  core::CleaningStats cleaning;
};

inline void banner(const char* artifact, const char* title,
                   const analysis::Scenario& scenario) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact, title);
  std::printf("scenario: seed=%llu scale=%.2f (%zu ASes, %zu /24 blocks)\n",
              static_cast<unsigned long long>(scenario.config().seed),
              scenario.config().scale, scenario.topo().as_count(),
              scenario.topo().block_count());
  std::printf("==============================================================\n");
}

/// One "paper vs measured" shape-check line.
inline void shape(const char* what, const std::string& paper,
                  const std::string& measured, bool holds) {
  std::printf("  [%s] %-52s paper: %-14s measured: %s\n",
              holds ? "ok" : "!!", what, paper.c_str(), measured.c_str());
}

}  // namespace vp::bench
