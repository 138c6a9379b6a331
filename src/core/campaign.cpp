#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"
#include "util/round_arena.hpp"
#include "util/thread_pool.hpp"

namespace vp::core {

RoundSpec Campaign::spec_for(std::uint32_t r) const {
  RoundSpec spec;
  spec.probe = base_;
  spec.probe.measurement_id = base_.measurement_id + r;
  spec.probe.order_seed = util::hash_combine(base_.order_seed, r);
  spec.round = r;
  spec.start = util::SimTime{interval_.usec * r};
  spec.threads = threads_;
  spec.faults = faults_;
  return spec;
}

std::uint64_t Campaign::fingerprint() const {
  std::uint64_t f = 0x76706a6f75726eULL;  // "vpjourn"
  f = util::hash_combine(f, probe_fingerprint(base_));
  f = util::hash_combine(f, rounds_);
  f = util::hash_combine(f, static_cast<std::uint64_t>(interval_.usec));
  f = util::hash_combine(f, threads_);
  f = util::hash_combine(f, fault_fingerprint(faults_));
  f = util::hash_combine(f, deployment_hash_);
  return f;
}

JournalManifest Campaign::manifest() const {
  return JournalManifest{fingerprint(), rounds_,
                         routes_->deployment().sites.size()};
}

std::vector<RoundResult> Campaign::run() const {
  return run_reported().results;
}

CampaignReport Campaign::run_reported() const {
  CampaignReport report;
  report.results.resize(rounds_);
  CampaignJournal journal;
  std::vector<bool> done(rounds_, false);
  if (!journal_path_.empty()) {
    auto opened = journal.open(journal_path_, manifest(), resume_);
    report.journal = opened.status;
    report.truncated_bytes = opened.truncated_bytes;
    if (!report.ok()) {
      report.results.clear();
      return report;
    }
    for (auto& [r, result] : opened.completed) {
      report.results[r] = std::move(result);
      done[r] = true;
      ++report.rounds_loaded;
    }
  }
  report.rounds_executed = rounds_ - report.rounds_loaded;
  auto& registry = obs::metrics();
  registry.counter("vp_campaign_rounds_resumed_total")
      .add(report.rounds_loaded);
  registry.counter("vp_campaign_rounds_executed_total")
      .add(report.rounds_executed);
  obs::Histogram& round_wall =
      registry.histogram("vp_campaign_round_wall_ms",
                         obs::latency_buckets_ms());

  // Appends are serialized; rounds completing out of order under
  // concurrency > 1 interleave their records in completion order, which
  // is fine — records carry round ids and resume takes the set.
  std::mutex journal_mutex;
  std::atomic<bool> append_ok{true};
  std::atomic<bool> cancelled{false};
  const auto cancel_requested = [&] {
    if (cancelled.load(std::memory_order_relaxed)) return true;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      cancelled.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
  const auto run_one = [&](std::uint32_t r, util::RoundArena& arena) {
    // Wall time of the round INCLUDING its journal append, as the
    // campaign experiences it (the engine's vp_engine_round_ms excludes
    // the append; the spread between the two is the durability tax).
    obs::Span span{&round_wall};
    // The arena is attached here — NOT in spec_for() — because it is a
    // pure performance knob: specs stay value types, and the campaign
    // fingerprint (and therefore journal resume) is unaffected.
    RoundSpec spec = spec_for(r);
    spec.arena = &arena;
    RoundResult result = engine_->run(*routes_, spec, observer_);
    if (journal.is_open()) {
      std::lock_guard lock{journal_mutex};
      if (!journal.append_round(r, result)) append_ok = false;
    }
    report.results[r] = std::move(result);
  };

  // The in-flight workers claim round indices from one counter, the way
  // probe workers claim runs, and each keeps one arena for every round it
  // claims, so round N+1 starts with round N's capacities. Cancellation is
  // checked before each claimed round starts: rounds in flight finish and
  // journal normally, later rounds are skipped, and the journal stays a
  // resumable prefix of the campaign. One worker runs inline.
  const unsigned in_flight =
      std::min(util::resolve_threads(concurrency_),
               std::max<std::uint32_t>(rounds_, 1));
  std::atomic<std::uint32_t> next_round{0};
  util::run_shards(in_flight, [&](unsigned) {
    util::RoundArena arena;
    for (std::uint32_t r = next_round++; r < rounds_ && !cancel_requested();
         r = next_round++)
      if (!done[r]) run_one(r, arena);
  });
  report.interrupted = cancelled.load(std::memory_order_relaxed);
  if (!append_ok) report.journal = JournalStatus::kIoError;
  return report;
}

}  // namespace vp::core
