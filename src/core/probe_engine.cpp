#include "core/probe_engine.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cleaning.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"
#include "util/round_arena.hpp"
#include "util/thread_pool.hpp"

namespace vp::core {

namespace {

/// Hitlist entries per run, the unit of work a probe worker claims. A run
/// is walked in entry order, which is block order, so the resolver,
/// responsiveness and geo rows its probes read stream through cache
/// instead of being hit at random; 4,096 entries keep the claim counter
/// cold while the last claims of a round stay short enough to even out
/// the workers.
constexpr std::size_t kRunEntries = 4096;

/// One worker's cross-round state. Nothing here is shared while the
/// workers run; the coordinator reads it after they join. Lives in the
/// round arena so round N+1 starts with round N's capacities.
struct WorkerWs {
  std::vector<std::uint8_t> probe_bytes;
  std::vector<std::uint8_t> reply_bytes;
  std::vector<sim::DeliveryView> deliveries;
  // Collector tallies per site (paper §3.1, "response collection
  // systems"): rows recorded and bytes received, summed at the merge.
  std::vector<std::uint64_t> site_replies;
  std::vector<std::uint64_t> site_bytes;
  std::uint64_t malformed = 0;
  sim::FaultStats faults;  // summed at merge: order-invariant
  // Observability tallies (plain ints: private to the worker, flushed
  // into the registry by the coordinator — zero hot-path contention).
  std::uint64_t obs_probes = 0;      // unique targets probed
  std::uint64_t obs_replied = 0;     // probes answered within the timeout
  std::uint64_t obs_unanswered = 0;  // probes never answered in time
  std::uint64_t hot_grows = 0;       // capacity growths inside the loop
  PageClean clean;                   // this worker's share of the clean
};

/// Everything the engine keeps alive between rounds. One instance per
/// arena; shapes repeat round to round (same hitlist, same threads), so
/// a steady-state round allocates nothing here.
struct EngineWorkspace {
  std::vector<std::uint32_t> order;    // probe position -> entry index
  std::vector<std::uint32_t> inverse;  // entry index -> probe position
  std::vector<ReplyRows> runs;         // one per run of kRunEntries
  std::vector<WorkerWs> workers;
  std::vector<std::uint32_t> page_bounds;  // worker -> first /8 it cleans
  std::vector<std::uint64_t> winners;      // block off -> first reply
  std::vector<float> rtts;                 // block off -> kept RTT slots
};

/// Registry handles the engine reports into, resolved once per process.
/// Everything here is observe-only (see obs/metrics.hpp): the round's
/// outputs are bit-identical whether the registry is enabled or not.
struct EngineMetrics {
  obs::Counter& rounds;
  obs::Counter& probes;
  obs::Counter& replied;
  obs::Counter& unanswered;
  obs::Counter& retries;
  obs::Counter& malformed;
  obs::Counter& arena_reuses;
  obs::Counter& hot_allocs;
  obs::Histogram& round_ms;
  obs::Histogram& probe_phase_ms;
  obs::Histogram& rtt_ms;

  static EngineMetrics& get() {
    auto& r = obs::metrics();
    const auto ms = obs::latency_buckets_ms();
    static EngineMetrics m{r.counter("vp_engine_rounds_total"),
                           r.counter("vp_engine_probes_sent_total"),
                           r.counter("vp_engine_probes_replied_total"),
                           r.counter("vp_engine_probes_unanswered_total"),
                           r.counter("vp_engine_retries_total"),
                           r.counter("vp_collector_malformed_total"),
                           r.counter("vp_engine_arena_reuses_total"),
                           r.counter("vp_engine_hot_allocs_total"),
                           r.histogram("vp_engine_round_ms", ms),
                           r.histogram("vp_engine_probe_phase_ms", ms),
                           r.histogram("vp_engine_rtt_ms", ms)};
    return m;
  }
};

/// The median and p95 of `values`, which it reorders. Selecting the median
/// leaves every larger value after it, so p95 is selected in that half.
std::pair<double, double> rtt_p50_p95(std::span<float> values) {
  if (values.empty()) return {0.0, 0.0};
  const auto at = [&values](double p) {
    return values.begin() + static_cast<std::ptrdiff_t>(
                                p * static_cast<double>(values.size() - 1) +
                                0.5);
  };
  const auto p50 = at(0.50), p95 = at(0.95);
  std::nth_element(values.begin(), p50, values.end());
  const double median = *p50;
  std::nth_element(p50, p95, values.end());
  return {median, *p95};
}

}  // namespace

ProbeEngine::ProbeEngine(const sim::InternetSim& internet,
                         const hitlist::Hitlist& hitlist)
    : internet_(&internet), hitlist_(&hitlist) {
  // Every probed address is its entry's target, so the span covers all
  // of them.
  if (hitlist.size() == 0) return;
  std::uint32_t lo = 0xffffffff, hi = 0;
  for (const hitlist::Entry& entry : hitlist.entries()) {
    lo = std::min(lo, entry.block.index());
    hi = std::max(hi, entry.block.index());
  }
  block_lo_ = lo;
  block_span_ = static_cast<std::size_t>(hi - lo) + 1;
  // Every entry is probed every round, so the probed-address table
  // depends on the hitlist alone. The zero sentinel is unambiguous:
  // probed addresses have a nonzero host byte, so their value is never 0.
  addr_by_block_.assign(block_span_, 0);
  for (const hitlist::Entry& entry : hitlist.entries())
    addr_by_block_[entry.block.index() - lo] = entry.target.value();
}

RoundResult ProbeEngine::run(const bgp::RoutingTable& routes,
                             const RoundSpec& spec,
                             RoundObserver* observer) const {
  const ProbeConfig& config = spec.probe;
  const anycast::Deployment& deployment = routes.deployment();
  const std::size_t site_count = deployment.sites.size();
  const std::span<const hitlist::Entry> entries = hitlist_->entries();

  EngineMetrics& em = EngineMetrics::get();
  obs::Span round_span{&em.round_ms};

  // Ask the table for its catchment resolver once, serially, before the
  // workers fan out — otherwise every worker's first probe piles up on
  // the resolver's build.
  (void)routes.catchment_resolver();

  // Cross-round scratch: a caller-provided arena (Campaign, the daemon,
  // the benches) makes round N+1 reuse round N's capacities; without one
  // the round allocates privately and the arena dies with the call.
  util::RoundArena local_arena;
  util::RoundArena* arena = spec.arena != nullptr ? spec.arena : &local_arena;
  const std::uint64_t reuses_before = arena->reuses();
  EngineWorkspace& ws = arena->state<EngineWorkspace>();
  if (arena->reuses() > reuses_before) em.arena_reuses.add();

  RoundResult result;
  result.started = spec.start;

  // --- plan ---------------------------------------------------------------
  // Probe i's global index gives its tx timestamp and ICMP sequence as
  // pure functions (tx = start + i/rate), so packets are bit-identical to
  // the serial walk's no matter which worker builds them, or when. One
  // probe per entry makes the index the entry's order position; the
  // workers walk entries, so they read it from the inverse permutation.
  const unsigned worker_count = static_cast<unsigned>(std::min<std::uint64_t>(
      util::resolve_threads(spec.threads),
      std::max<std::uint64_t>(entries.size(), 1)));
  ws.order.reserve(entries.size());
  hitlist_->probe_order_into(util::hash_combine(config.order_seed, spec.round),
                             ws.order);
  const auto& order = ws.order;
  ws.inverse.reserve(order.size());
  ws.inverse.resize(order.size());
  util::parallel_for(order.size(), worker_count,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i)
                         ws.inverse[order[i]] = static_cast<std::uint32_t>(i);
                     });
  const std::uint64_t total_probes = order.size();

  const std::size_t run_count =
      (entries.size() + kRunEntries - 1) / kRunEntries;
  std::uint64_t hot_grows = 0;
  if (ws.runs.size() < run_count) {
    ws.runs.resize(run_count);
    ++hot_grows;
  }

  // The cleaner's per-block tables hold one slot per /24 of the
  // hitlist's block span, like the probed-address table.
  const std::uint32_t block_lo = block_lo_;
  const std::size_t block_span = block_span_;

  // --- probe phase (claimed runs, block order) ----------------------------
  const util::SimTime gap =
      util::SimTime::from_seconds(1.0 / kProbeRatePps);
  // Fault/retry path: only taken when a live plan or retries are
  // configured, so a plain round stays byte-identical to the pre-fault
  // engine. Retry timing is a pure function of the probe's global index
  // and attempt number (see ProbeConfig::max_retries), which keeps the
  // result independent of which worker probed what.
  const sim::FaultInjector* injector =
      (spec.faults != nullptr && spec.faults->plan().enabled()) ? spec.faults
                                                                : nullptr;
  const int max_attempts = 1 + std::max(config.max_retries, 0);
  const bool robust = injector != nullptr || max_attempts > 1;
  const util::SimTime timeout =
      util::SimTime::from_seconds(config.probe_timeout_ms / 1000.0);
  const util::SimTime window =
      util::SimTime{gap.usec * static_cast<std::int64_t>(total_probes)};

  ws.workers.reserve(worker_count);
  if (ws.workers.size() < worker_count) ws.workers.resize(worker_count);
  std::atomic<std::size_t> next_run{0};
  std::mutex observer_mutex;
  std::uint64_t sent_total = 0;  // guarded by observer_mutex
  // Each worker reports every `stride` probes; dividing by the worker
  // count keeps the global reporting cadence roughly constant as threads
  // grow.
  const std::uint64_t stride =
      std::max<std::uint64_t>((1u << 16) / worker_count, 4096);

  obs::Span probe_span{&em.probe_phase_ms};
  util::run_shards(worker_count, [&](unsigned w) {
    WorkerWs& worker = ws.workers[w];
    // Capacity growths inside this worker are tracked against the
    // steady-state promise (vp_engine_hot_allocs_total): round 3+ of an
    // arena-backed campaign must report zero.
    worker.faults = {};
    worker.obs_probes = worker.obs_replied = worker.obs_unanswered = 0;
    worker.malformed = 0;
    if (worker.site_replies.size() != site_count) ++worker.hot_grows;
    worker.site_replies.assign(site_count, 0);
    worker.site_bytes.assign(site_count, 0);

    std::uint64_t since_report = 0;
    sim::DataplaneTally dataplane;
    for (std::size_t r; (r = next_run.fetch_add(1, std::memory_order_relaxed)) <
                        run_count;) {
      ReplyRows& rows = ws.runs[r];
      const std::size_t rows_cap = rows.capacity();
      rows.restart();
      const std::size_t e_begin = r * kRunEntries;
      const std::size_t e_end = std::min(e_begin + kRunEntries, entries.size());
      for (std::size_t e = e_begin; e < e_end; ++e) {
        const hitlist::Entry& entry = entries[e];
        const net::Ipv4Address target = entry.target;
        const std::uint64_t probe_index = ws.inverse[e];
        util::SimTime attempt_tx =
            spec.start +
            util::SimTime{gap.usec * static_cast<std::int64_t>(probe_index)};
        double backoff_ms = config.retry_backoff_ms;
        bool answered = false;
        std::uint16_t seq = 0;
        for (int attempt = 0; attempt < max_attempts; ++attempt) {
          if (attempt > 0) ++worker.faults.retries;
          bool answered_in_time = false;
          const bool dropped =
              injector != nullptr &&
              injector->drops_probe(target, spec.round,
                                    static_cast<std::uint32_t>(attempt));
          if (dropped) {
            ++worker.faults.probes_lost;
          } else {
            net::ProbePayload payload;
            payload.measurement_id = config.measurement_id;
            payload.tx_time_usec = attempt_tx.usec;
            payload.original_target = target;
            net::build_echo_request_into(
                worker.probe_bytes, deployment.measurement_address, target,
                static_cast<std::uint16_t>(config.measurement_id & 0xffff),
                static_cast<std::uint16_t>(probe_index & 0xffff), payload);
            internet_->probe_into(routes, worker.probe_bytes, attempt_tx,
                                  spec.round, worker.deliveries,
                                  worker.reply_bytes, dataplane);
            if (injector != nullptr) {
              injector->apply_reply_faults(
                  worker.deliveries, entry.block, spec.round,
                  static_cast<std::uint32_t>(attempt), attempt_tx,
                  site_count, spec.start, window, worker.faults);
            } else if (robust) {
              worker.faults.replies_generated += worker.deliveries.size();
            }
            if (!worker.deliveries.empty()) {
              // All deliveries of one attempt share the same bytes:
              // parse once, then append one row per delivery.
              const auto parsed = net::parse_reply_view(worker.reply_bytes);
              for (const sim::DeliveryView& delivery : worker.deliveries) {
                if (delivery.arrival <= attempt_tx + timeout)
                  answered_in_time = true;
                const auto site = static_cast<std::size_t>(delivery.site);
                worker.site_bytes[site] += worker.reply_bytes.size();
                if (!parsed) {
                  ++worker.malformed;
                } else {
                  ++worker.site_replies[site];
                  rows.push(delivery.arrival.usec, parsed->probe.tx_time_usec,
                            probe_index, parsed->ip.source.value(),
                            parsed->probe.measurement_id, seq, delivery.site);
                }
                ++seq;
              }
            }
          }
          if (answered_in_time) {
            if (attempt > 0) ++worker.faults.recovered;
            answered = true;
            break;
          }
          attempt_tx +=
              timeout + util::SimTime::from_seconds(backoff_ms / 1000.0);
          backoff_ms *= kRetryBackoffFactor;
        }
        ++worker.obs_probes;
        if (answered)
          ++worker.obs_replied;
        else
          ++worker.obs_unanswered;
        if (observer != nullptr && ++since_report == stride) {
          std::lock_guard lock{observer_mutex};
          sent_total += since_report;
          since_report = 0;
          observer->on_probe_progress(spec, sent_total, total_probes);
        }
      }
      if (rows.capacity() != rows_cap) ++worker.hot_grows;
      // One flush of the run's dataplane tallies — the only time this
      // worker touches the shared obs layer per run.
      sim::InternetSim::flush(dataplane);
    }
  });
  const double probe_phase_ms = probe_span.stop();
  if (observer != nullptr)
    observer->on_probe_progress(spec, total_probes, total_probes);

  result.probing_duration = window;
  result.map.measurement_id = config.measurement_id;

  // --- merge --------------------------------------------------------------
  // Fault counters and tallies are sums, so which worker probed which run
  // cannot affect them. Every hitlist entry (= one block) was probed
  // exactly once, so blocks_probed is just the entry count.
  // NB: ws.workers may be longer than worker_count when a cross-round
  // arena served a wider round earlier — only the first worker_count
  // entries belong to THIS round, so every merge loop below indexes
  // explicitly.
  for (unsigned w = 0; w < worker_count; ++w) {
    result.faults += ws.workers[w].faults;
    hot_grows += ws.workers[w].hot_grows;
    ws.workers[w].hot_grows = 0;
  }
  em.hot_allocs.add(hot_grows);
  result.map.probes_sent = total_probes + result.faults.retries;
  result.map.blocks_probed = order.size();

  // Flush the workers' observability tallies. Labeled per-worker series
  // let a dashboard spot an unbalanced split; the aggregates feed the
  // one-line progress report. Skipped entirely when metrics are off —
  // nothing downstream reads them, so results cannot change (the
  // determinism test runs both ways and byte-compares the CSVs).
  if (obs::metrics().enabled()) {
    auto& reg = obs::metrics();
    for (unsigned w = 0; w < worker_count; ++w) {
      const WorkerWs& worker = ws.workers[w];
      const std::string label = "{shard=\"" + std::to_string(w) + "\"}";
      reg.counter("vp_engine_shard_probes_total" + label)
          .add(worker.obs_probes);
      reg.counter("vp_engine_shard_replied_total" + label)
          .add(worker.obs_replied);
      reg.counter("vp_engine_shard_unanswered_total" + label)
          .add(worker.obs_unanswered);
      reg.counter("vp_engine_shard_retries_total" + label)
          .add(worker.faults.retries);
      em.probes.add(worker.obs_probes);
      em.replied.add(worker.obs_replied);
      em.unanswered.add(worker.obs_unanswered);
      em.retries.add(worker.faults.retries);
    }
    if (robust) sim::record_fault_metrics(result.faults, reg);
  }

  result.raw_replies_per_site.assign(site_count, 0);
  CleaningStats& stats = result.map.cleaning;
  for (unsigned w = 0; w < worker_count; ++w) {
    const WorkerWs& worker = ws.workers[w];
    stats.malformed += worker.malformed;
    for (std::size_t site = 0; site < site_count; ++site)
      result.raw_replies_per_site[site] += worker.site_replies[site];
  }
  stats.raw_replies = stats.malformed;
  for (const std::uint64_t n : result.raw_replies_per_site)
    stats.raw_replies += n;
  if (obs::metrics().enabled()) {
    auto& reg = obs::metrics();
    for (std::size_t site = 0; site < site_count; ++site) {
      std::uint64_t bytes = 0;
      for (unsigned w = 0; w < worker_count; ++w)
        bytes += ws.workers[w].site_bytes[site];
      const std::string label =
          "{site=\"" + deployment.sites[site].code + "\"}";
      reg.counter("vp_collector_replies_total" + label)
          .add(result.raw_replies_per_site[site]);
      reg.counter("vp_collector_bytes_total" + label).add(bytes);
    }
    em.malformed.add(stats.malformed);
  }

  // --- central cleaning (paper §4) ----------------------------------------
  // Every filter is per reply and first-reply-wins keeps each block's
  // least reply under (arrival, site, key, seq) (core/cleaning.hpp), so
  // the workers clean in parallel without a sort: worker w owns the /8
  // map pages [page_bounds[w], page_bounds[w+1]), split so each holds a
  // like share of the hitlist, and reduces only the rows whose source
  // lies in them.
  CleanFilter filter;
  filter.measurement_id = config.measurement_id;
  filter.cutoff_usec =
      (spec.start + util::SimTime::from_minutes(kLateCutoffMinutes)).usec;
  filter.block_lo = block_lo;
  filter.block_span = block_span;
  filter.addr_by_block = addr_by_block_;
  ws.page_bounds.reserve(worker_count + 1);
  ws.page_bounds.assign(worker_count + 1, 0);
  ws.page_bounds[worker_count] = 1u << 8;
  for (unsigned w = 1; w < worker_count; ++w) {
    const std::size_t e = entries.size() * w / worker_count;
    const std::uint32_t page =
        e < entries.size() ? entries[e].block.index() >> 16 : 1u << 8;
    ws.page_bounds[w] = std::max(ws.page_bounds[w - 1], page);
  }
  ws.winners.reserve(block_span);
  ws.winners.resize(block_span);
  ws.rtts.reserve(block_span);
  ws.rtts.resize(block_span);
  const std::span<const ReplyRows> runs{ws.runs.data(), run_count};
  util::run_shards(worker_count, [&](unsigned w) {
    WorkerWs& worker = ws.workers[w];
    worker.clean = clean_pages(runs, filter, ws.page_bounds[w],
                               ws.page_bounds[w + 1], ws.winners, ws.rtts,
                               result.map);
    em.rtt_ms.observe_all(worker.clean.rtts);
  });
  for (unsigned w = 0; w < worker_count; ++w) {
    const CleaningStats& part = ws.workers[w].clean.stats;
    stats.wrong_id += part.wrong_id;
    stats.late += part.late;
    stats.unsolicited += part.unsolicited;
    stats.duplicates += part.duplicates;
    stats.kept += part.kept;
  }
  em.rounds.add();
  const double wall_ms = round_span.stop();
  if (observer != nullptr) {
    observer->on_round_complete(spec, result);
    RoundMetrics metrics;
    metrics.wall_ms = wall_ms;
    metrics.probe_phase_ms = probe_phase_ms;
    metrics.probes_sent = result.map.probes_sent;
    metrics.replies_raw = stats.raw_replies;
    metrics.replies_kept = stats.kept;
    metrics.probes_per_sec =
        wall_ms > 0.0
            ? static_cast<double>(metrics.probes_sent) / (wall_ms / 1000.0)
            : 0.0;
    // Pack the workers' RTTs (ascending, disjoint slot ranges) into one
    // prefix of the table; each part moves down, never onto a later one.
    float* packed = ws.rtts.data();
    for (unsigned w = 0; w < worker_count; ++w) {
      const std::span<const float> part = ws.workers[w].clean.rtts;
      if (part.data() != packed) std::copy(part.begin(), part.end(), packed);
      packed += part.size();
    }
    std::tie(metrics.rtt_p50_ms, metrics.rtt_p95_ms) =
        rtt_p50_p95({ws.rtts.data(), packed});
    observer->on_metrics(spec, metrics);
  }
  return result;
}

}  // namespace vp::core
