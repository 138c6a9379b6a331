// The round API: value types describing one measurement round and the
// observer interface for watching it run.
//
// A round is fully specified by a RoundSpec — probe configuration, the
// round index (which drives every stochastic process in the simulator),
// the virtual start time, and how many workers to probe and clean with. Two
// runs of the same spec produce bit-identical results for ANY thread
// count; see core/probe_engine.hpp for how the engine guarantees this.
#pragma once

#include <cstdint>
#include <vector>

#include "core/catchment.hpp"
#include "net/ipv4.hpp"
#include "sim/fault_injector.hpp"
#include "util/clock.hpp"

namespace vp::util {
class RoundArena;
}

namespace vp::core {

/// Probe transmission rate (paper §4.2: 10k/s; §3.1 mentions ~6k/s).
inline constexpr double kProbeRatePps = 10'000.0;
/// Replies later than this after measurement start are discarded (§4).
inline constexpr double kLateCutoffMinutes = 15.0;
/// Exponential growth of the backoff across successive retries.
inline constexpr double kRetryBackoffFactor = 2.0;

/// One probe per hitlist entry, i.e. per /24 block (paper §3.1).
struct ProbeConfig {
  std::uint32_t measurement_id = 1;
  /// Seed for the pseudorandom probe order.
  std::uint64_t order_seed = 1;
  /// Retry attempts per probe that saw no reply within the timeout
  /// (0 = the paper's fire-once design; §3.1 leaves retries as future
  /// work — we implement them). Retries never shift other probes' tx
  /// times: attempt a of probe k goes out at
  ///   start + k/rate + a*timeout + backoff*(factor^0 + ... + factor^(a-1)),
  /// with rate kProbeRatePps and factor kRetryBackoffFactor, a pure
  /// function of (k, a), which is what keeps the sharded merge
  /// bit-identical for any thread count.
  int max_retries = 0;
  /// How long the prober waits for a reply before declaring an attempt
  /// silent and (if attempts remain) retrying.
  double probe_timeout_ms = 1'000.0;
  /// Base backoff added on top of the timeout before each retry.
  double retry_backoff_ms = 250.0;
};

/// Everything that defines one measurement round.
struct RoundSpec {
  ProbeConfig probe;
  /// Indexes the simulation's stochastic processes (responsiveness churn,
  /// catchment flips).
  std::uint32_t round = 0;
  /// Stamps probe transmit times.
  util::SimTime start{};
  /// Probe and clean workers: 1 = serial, 0 = one per hardware thread.
  /// Never affects the result, only wall-clock time.
  unsigned threads = 1;
  /// Optional fault plan layered over the simulated Internet (must
  /// outlive the run). Null or a disabled plan leaves every packet and
  /// timestamp byte-identical to the fault-free engine.
  const sim::FaultInjector* faults = nullptr;
  /// Optional cross-round scratch arena (must outlive the run). The
  /// engine keeps its probe-order, reply-row and per-worker workspaces
  /// here so round N+1 reuses round N's allocations; null means the run
  /// allocates privately. Purely a performance knob: results are
  /// bit-identical with or without it, but an arena must not be shared
  /// by two CONCURRENT runs.
  util::RoundArena* arena = nullptr;
};

/// Outcome of one round: the cleaned catchment map (site and RTT per
/// mapped block) plus the raw per-site reply volumes (used by the
/// traffic-cost accounting).
struct RoundResult {
  CatchmentMap map;
  std::vector<std::uint64_t> raw_replies_per_site;
  util::SimTime started;
  util::SimTime probing_duration;  // time to emit all probes at kProbeRatePps
  /// Injected-fault and retry accounting; all-zero when the round ran
  /// without a fault plan and without retries.
  sim::FaultStats faults;
};

/// Wall-clock timing and throughput of one finished round, as measured
/// by the engine against the real (steady) clock. This is observability
/// output ONLY: wall times are inherently nondeterministic, so nothing
/// in RoundMetrics ever feeds back into probe decisions or results —
/// catchments stay bit-identical whether anyone looks at this or not.
struct RoundMetrics {
  double wall_ms = 0.0;         ///< whole run(): plan + probe + merge + clean
  double probe_phase_ms = 0.0;  ///< probe workers running
  std::uint64_t probes_sent = 0;    ///< incl. retries
  std::uint64_t replies_raw = 0;    ///< before cleaning
  std::uint64_t replies_kept = 0;   ///< after cleaning
  double probes_per_sec = 0.0;      ///< probes_sent / wall time
  double rtt_p50_ms = 0.0;          ///< median RTT over kept replies
  double rtt_p95_ms = 0.0;
};

/// Progress and accounting callbacks from a running round. Default
/// implementations do nothing, so observers override only what they need.
///
/// Threading contract: within one run, on_probe_progress may be called
/// from any probe worker but calls are serialized by the engine;
/// on_round_complete and on_metrics come from the thread that called
/// ProbeEngine::run, after the workers joined. Distinct *concurrent*
/// rounds (a Campaign with concurrency > 1, each on its own claiming
/// worker) call the observer independently — an observer shared across
/// rounds must synchronize its own state.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;

  /// Probe-phase progress: `sent` of `total` probes emitted so far.
  /// Throttled (roughly every 64k probes per worker, plus once at the
  /// end), monotonic per round.
  virtual void on_probe_progress(const RoundSpec& spec, std::uint64_t sent,
                                 std::uint64_t total) {
    (void)spec, (void)sent, (void)total;
  }

  /// The round is fully cleaned. `result.map.cleaning` holds the
  /// cleaning stats, `result.raw_replies_per_site` the per-site reply
  /// counts before cleaning, and `result.faults` the fault and retry
  /// accounting (all-zero when the round ran clean).
  virtual void on_round_complete(const RoundSpec& spec,
                                 const RoundResult& result) {
    (void)spec, (void)result;
  }

  /// Wall-clock timing/throughput for the finished round — the live
  /// one-line progress report vpctl prints. Called last, after
  /// on_round_complete. Values are real time and therefore
  /// nondeterministic; results never depend on them.
  virtual void on_metrics(const RoundSpec& spec, const RoundMetrics& metrics) {
    (void)spec, (void)metrics;
  }
};

}  // namespace vp::core
