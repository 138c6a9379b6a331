// verfploeterd: the continuous-mapping service (ROADMAP open item 2).
//
// The paper's Fig-9 stability argument is what makes a *continuously
// refreshed* catchment map operationally useful — the real verfploeter
// runs as a service at B-Root, not a batch job. This daemon turns the
// batch campaign machinery into that production shape, and its headline
// property is survival, not speed:
//
//  * every measurement round runs under a watchdog deadline with bounded
//    retry/backoff — a hung or failed round is abandoned, never served;
//  * the served map only ever moves forward to a *good* round's result:
//    a failed/hung/partial round keeps the last good map and transitions
//    the daemon into an explicit state machine
//        Init -> Fresh -> Stale(age) -> Degraded(reason)
//    surfaced in metrics and in every query response as bounded-staleness
//    metadata (map round + age + state);
//  * completed rounds are journaled through core::CampaignJournal with
//    the exact manifest fingerprint `vpctl campaign` uses, so a daemon
//    journal and a batch journal are interchangeable: on restart the
//    daemon resumes the live map from the journal, and the chaos harness
//    (tests/daemon_chaos_test.cpp) byte-compares the served map against
//    an uninterrupted offline run;
//  * a journal that cannot be opened or appended degrades the daemon
//    (reason journal-io) but never stops serving — disks fill, maps
//    survive.
//
// Rounds are pure functions of their RoundSpec (core/round.hpp), and the
// daemon derives specs from the same core::Campaign policy as vpctl, so
// round r served by the daemon is bit-identical to round r of a batch
// campaign with the same configuration — that equivalence is what every
// chaos invariant is checked against.
//
// Query serving (HTTP endpoints in vpd, handlers here so they are
// unit-testable and benchable without sockets):
//   /block/<ip>  owning site + map round/age/state      (O(1) map lookup)
//   /load?config=SITE=N,...  predicted per-site load under a prepend
//                config, via the incremental delta-routing session
//   /drift       online Fig-9-style change-point report between the two
//                most recent good rounds (analysis::catchment_diff)
//   /map         the served catchment as CSV — byte-identical to
//                core::write_catchment_csv of the same round, rendered
//                once per snapshot
//   /healthz     state machine + staleness metadata
//   /metrics     the process Prometheus registry
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "analysis/catchment_diff.hpp"
#include "analysis/scenario.hpp"
#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "net/http_server.hpp"
#include "sim/fault_injector.hpp"
#include "util/round_arena.hpp"
#include "util/stats.hpp"

namespace vp::service {

/// The serving state machine. Stale is derived (Fresh + age beyond the
/// bound), Degraded is entered explicitly by a failed round or a journal
/// I/O error and left by the next clean round.
enum class MapState {
  kInit,      ///< no map yet (neither measured nor journal-resumed)
  kFresh,     ///< last round was good and the map is within its age bound
  kStale,     ///< last round was good but the map outlived stale_after_ms
  kDegraded,  ///< last round failed (watchdog/empty) or journal I/O broke
};
const char* to_string(MapState state);

/// Why the daemon is degraded; kNone in every other state.
enum class DegradedReason {
  kNone,
  kWatchdogKilled,  ///< the round hit its watchdog deadline and was abandoned
  kEmptyRound,      ///< the round completed but mapped zero blocks
  kJournalIo,       ///< journal open/append failed; serving continues
};
const char* to_string(DegradedReason reason);

/// One published snapshot: the good round backing every query answer.
/// Immutable once published; queries hold it via shared_ptr so a round
/// swap never invalidates an in-flight response.
struct ServedMap {
  core::RoundResult result;
  std::uint32_t round = 0;
  bool from_journal = false;  ///< resumed at startup rather than measured
  std::chrono::steady_clock::time_point published_at{};

  /// The snapshot as CSV — core::catchment_csv of `result` — which /map
  /// serves. Rendered by the first call and kept, so repeated /map
  /// requests on one snapshot share it instead of rendering again
  /// (vp_serve_map_renders_total counts renders). Thread-safe.
  const std::string& csv(const anycast::Deployment& deployment) const;

 private:
  mutable std::once_flag csv_once_;
  mutable std::string csv_;
};

/// Online drift detection between consecutive good rounds: the Fig-9
/// stability analysis as a change-point monitor. Alarm fires when the
/// moved fraction exceeds both the absolute threshold and the running
/// mean + 4 sigma of previous transitions (so a deployment whose normal
/// churn is high does not alarm on every round).
struct DriftReport {
  bool available = false;
  std::uint32_t from_round = 0;
  std::uint32_t to_round = 0;
  analysis::CatchmentDiff diff;
  double mean_moved_fraction = 0.0;   ///< running mean over transitions
  double stddev_moved_fraction = 0.0;
  bool alarm = false;
};

/// Journal manifest round cap in continuous mode (rounds == 0); part of
/// the fingerprint, so resuming requires the same cap.
inline constexpr std::uint32_t kMaxRounds = 1u << 20;
/// Absolute moved-fraction floor for the drift alarm.
inline constexpr double kDriftAlarmFraction = 0.05;

struct DaemonConfig {
  /// Base probe configuration; round r runs exactly as vpctl campaign's
  /// round r (measurement id base + r, per-round order seed).
  core::ProbeConfig probe;
  /// Measurement rounds to run before the loop parks (0 = until stop,
  /// journaled under the kMaxRounds cap).
  std::uint32_t rounds = 0;
  /// Simulated spacing between rounds (the campaign policy knob).
  util::SimTime sim_interval = util::SimTime::from_minutes(15);
  /// Wall-clock spacing between round *starts* (0 = back to back).
  double cadence_ms = 0.0;
  /// Probe worker shards per round.
  unsigned threads = 1;
  /// Watchdog: a round attempt exceeding this wall-clock deadline is
  /// abandoned (its result, if it ever arrives, is discarded).
  double watchdog_ms = 30'000.0;
  /// Attempts per round beyond the first after a watchdog kill or an
  /// empty result; exhausting them fails the round (daemon degrades,
  /// keeps serving, moves on).
  int round_retries = 1;
  /// Base wall backoff between round attempts, doubled per retry.
  double retry_backoff_ms = 100.0;
  /// Age beyond which a Fresh map is reported Stale (0 = derive as
  /// 3 x cadence_ms; if cadence is also 0, age alone never stales).
  double stale_after_ms = 0.0;
  /// Crash-safe journal path ("" = journaling disabled).
  std::string journal_path;
  /// Attempt journal resume on startup (ignored without a journal path).
  bool resume = true;
  /// Fault plan applied to every round (must outlive the daemon).
  const sim::FaultInjector* faults = nullptr;
};

/// Point-in-time serving status (the /healthz payload).
struct DaemonStatus {
  MapState state = MapState::kInit;
  DegradedReason reason = DegradedReason::kNone;
  bool has_map = false;
  std::uint32_t map_round = 0;
  double map_age_seconds = 0.0;
  std::uint32_t rounds_completed = 0;  ///< measured by this process
  std::uint32_t rounds_failed = 0;
  std::uint32_t watchdog_kills = 0;
  std::uint32_t rounds_resumed = 0;    ///< loaded from the journal
  core::JournalStatus journal = core::JournalStatus::kDisabled;
};

class Daemon {
 public:
  /// The scenario and deployment must outlive the daemon (vpd keeps both
  /// on main's stack). Routing is resolved once at construction — the
  /// served map only changes through measurement, exactly like the
  /// batch campaign.
  Daemon(const analysis::Scenario& scenario,
         const anycast::Deployment& deployment, DaemonConfig config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Opens/resumes the journal and runs the supervised round loop until
  /// the round budget is spent or request_stop(). Returns false only on
  /// a journal *refusal* (fingerprint mismatch / corruption — resuming
  /// would split one campaign across two realities); an unwritable
  /// journal degrades the daemon but still runs. Blocking: callers that
  /// serve while measuring run this on its own thread.
  bool run_rounds();

  /// Asks the round loop to wind down: the in-flight attempt finishes
  /// (or hits its watchdog) and its journal append completes before the
  /// loop exits. Safe to call from any thread; a signal handler may only
  /// set an external flag that the caller forwards here.
  void request_stop();

  /// Endpoint dispatch — the whole HTTP surface as a pure(ish) function,
  /// so tests and bench_serve drive it without sockets. Thread-safe
  /// against a concurrent run_rounds().
  net::HttpResponse handle(const net::HttpRequest& request);

  /// The currently served snapshot (nullptr in Init).
  std::shared_ptr<const ServedMap> current_map() const;

  DaemonStatus status() const;
  DriftReport drift() const;
  core::JournalStatus journal_status() const;
  const anycast::Deployment& deployment() const { return deployment_; }

  /// The campaign-policy fingerprint this daemon journals under —
  /// identical to vpctl campaign's for the same configuration.
  std::uint64_t fingerprint() const { return campaign_.fingerprint(); }

 private:
  struct Attempt;  // shared watchdog/worker rendezvous state

  enum class RoundOutcome { kGood, kFailed, kStopped };

  RoundOutcome run_supervised(std::uint32_t round);
  /// One watchdogged attempt; returns the result or nullopt on timeout.
  std::optional<core::RoundResult> run_attempt(std::uint32_t round);
  void publish(std::uint32_t round, core::RoundResult result,
               bool from_journal);
  void enter_degraded(DegradedReason reason);
  void refresh_gauges() const;
  /// Interruptible wall-clock sleep; returns false when stopping.
  bool sleep_ms(double ms);

  net::HttpResponse handle_block(const net::HttpRequest& request);
  net::HttpResponse handle_load(const net::HttpRequest& request);
  net::HttpResponse handle_healthz();
  net::HttpResponse handle_drift();
  net::HttpResponse handle_map();
  net::HttpResponse handle_metrics();

  const analysis::Scenario& scenario_;
  anycast::Deployment deployment_;
  DaemonConfig config_;
  std::shared_ptr<const bgp::RoutingTable> routes_;
  core::Campaign campaign_;  ///< spec/fingerprint policy only, never run()
  dnsload::LoadModel load_;
  core::CampaignJournal journal_;

  std::atomic<bool> stop_{false};
  mutable std::mutex state_mutex_;
  std::condition_variable stop_cv_;
  std::shared_ptr<const ServedMap> map_;          // guarded by state_mutex_
  MapState state_ = MapState::kInit;              // guarded by state_mutex_
  DegradedReason reason_ = DegradedReason::kNone;
  DriftReport drift_;                             // guarded by state_mutex_
  std::uint32_t rounds_completed_ = 0;
  std::uint32_t rounds_failed_ = 0;
  std::uint32_t watchdog_kills_ = 0;
  std::uint32_t rounds_resumed_ = 0;
  core::JournalStatus journal_status_ = core::JournalStatus::kDisabled;
  util::OnlineStats drift_stats_;  // moved fractions (drift change-point)

  mutable std::mutex session_mutex_;  // guards the /load delta session
  std::unique_ptr<analysis::DeltaSession> session_;

  // Cross-round scratch arena for the probe engine. Held as a shared_ptr
  // because a watchdog-abandoned worker may still be running against it:
  // run_attempt hands the worker its own reference and, on abandonment,
  // RESETS this member so the next attempt gets a fresh arena instead of
  // racing the zombie (the abandoned thread keeps the old arena alive
  // until it exits). Only the supervise loop touches it — no lock needed.
  std::shared_ptr<util::RoundArena> arena_;
};

}  // namespace vp::service
