#include "service/daemon.hpp"

#include <cstdlib>
#include <cstring>
#include <cmath>
#include <thread>
#include <utility>

#include "analysis/load_analysis.hpp"
#include "core/dataset_io.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"

namespace vp::service {

namespace {

using obs::json_escape;

/// Map-age histogram bounds, in seconds: the bounded-staleness contract
/// makes "how old was the map when queried" a first-class SLO, so the
/// buckets span one cadence tick to hours.
std::span<const double> age_buckets_seconds() {
  static const double bounds[] = {0.1, 0.5, 1, 5, 15, 60, 300, 900, 3600, 14400};
  return bounds;
}

/// Test hook: VP_DAEMON_LOSS_ROUND=r swaps in a 100%-forward-loss fault
/// plan for round r's attempts — a completed-but-empty round, which the
/// supervisor must classify as failed. Rounds are independent pure
/// functions, so every *other* round still matches a clean run exactly.
const sim::FaultInjector* loss_injector() {
  static const sim::FaultInjector injector = [] {
    sim::FaultPlan plan;
    plan.probe_loss_rate = 1.0;
    return sim::FaultInjector{plan};
  }();
  return &injector;
}

bool env_round_matches(const char* name, std::uint32_t round) {
  const char* env = std::getenv(name);
  return env != nullptr &&
         std::strtoul(env, nullptr, 10) == static_cast<unsigned long>(round);
}

}  // namespace

const char* to_string(MapState state) {
  switch (state) {
    case MapState::kInit: return "init";
    case MapState::kFresh: return "fresh";
    case MapState::kStale: return "stale";
    case MapState::kDegraded: return "degraded";
  }
  return "?";
}

const char* to_string(DegradedReason reason) {
  switch (reason) {
    case DegradedReason::kNone: return "none";
    case DegradedReason::kWatchdogKilled: return "watchdog-killed";
    case DegradedReason::kEmptyRound: return "empty-round";
    case DegradedReason::kJournalIo: return "journal-io";
  }
  return "?";
}

/// Watchdog/worker rendezvous. The worker only ever touches this shared
/// state (plus const engine/routing structures that outlive the daemon),
/// so an abandoned worker can finish late — or never — without racing the
/// supervisor: whoever holds the mutex decides whether the result counts.
struct Daemon::Attempt {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  bool abandoned = false;
  core::RoundResult result;
};

Daemon::Daemon(const analysis::Scenario& scenario,
               const anycast::Deployment& deployment, DaemonConfig config)
    : scenario_(scenario),
      deployment_(deployment),
      config_(std::move(config)),
      routes_(scenario.route(deployment_)),
      campaign_(scenario.engine(), *routes_),
      load_(scenario.broot_load(analysis::kMayEpoch)) {
  // The campaign object is the daemon's spec/fingerprint policy — one
  // source of truth shared with `vpctl campaign`, which is what makes a
  // daemon journal and a batch journal interchangeable. Its round count
  // is the loop's cap (kMaxRounds when unbounded).
  campaign_.probe(config_.probe)
      .rounds(config_.rounds > 0 ? config_.rounds : kMaxRounds)
      .interval(config_.sim_interval)
      .threads(config_.threads)
      .faults(config_.faults);
  if (!config_.journal_path.empty()) {
    campaign_.journal(config_.journal_path, anycast::fingerprint(deployment_));
  }
}

Daemon::~Daemon() { request_stop(); }

void Daemon::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  std::lock_guard lock{state_mutex_};
  stop_cv_.notify_all();
}

bool Daemon::sleep_ms(double ms) {
  if (ms <= 0) return !stop_.load(std::memory_order_relaxed);
  std::unique_lock lock{state_mutex_};
  stop_cv_.wait_for(lock, std::chrono::duration<double, std::milli>{ms},
                    [this] { return stop_.load(std::memory_order_relaxed); });
  return !stop_.load(std::memory_order_relaxed);
}

bool Daemon::run_rounds() {
  const core::JournalManifest manifest = campaign_.manifest();
  std::uint32_t next = 0;
  if (!config_.journal_path.empty()) {
    auto opened =
        journal_.open(config_.journal_path, manifest, config_.resume);
    {
      std::lock_guard lock{state_mutex_};
      journal_status_ = opened.status;
      rounds_resumed_ = static_cast<std::uint32_t>(opened.completed.size());
    }
    switch (opened.status) {
      case core::JournalStatus::kFingerprintMismatch:
      case core::JournalStatus::kCorrupt:
        // Refusal, not degradation: resuming past a mismatched or corrupt
        // journal could split one campaign's artifacts across realities.
        return false;
      case core::JournalStatus::kIoError:
        // An unopenable journal must not take serving down with it: run
        // unjournaled, degraded, and keep answering queries.
        enter_degraded(DegradedReason::kJournalIo);
        break;
      case core::JournalStatus::kResumed:
        if (!opened.completed.empty()) {
          // The live map resumes from the newest journaled round; the
          // loop continues after it (completed rounds are contiguous
          // here because the daemon measures sequentially).
          auto newest = std::prev(opened.completed.end());
          next = newest->first + 1;
          publish(newest->first, std::move(newest->second), true);
        }
        break;
      default:
        break;
    }
  }

  bool first = true;
  for (std::uint32_t round = next; round < manifest.rounds; ++round) {
    if (!first && config_.cadence_ms > 0 && !sleep_ms(config_.cadence_ms))
      break;
    first = false;
    if (stop_.load(std::memory_order_relaxed)) break;
    if (run_supervised(round) == RoundOutcome::kStopped) break;
  }
  journal_.close();
  refresh_gauges();
  return true;
}

Daemon::RoundOutcome Daemon::run_supervised(std::uint32_t round) {
  static auto& watchdog_total =
      obs::metrics().counter("vp_daemon_rounds_watchdog_killed_total");
  static auto& completed_total =
      obs::metrics().counter("vp_daemon_rounds_completed_total");
  static auto& failed_total =
      obs::metrics().counter("vp_daemon_rounds_failed_total");

  DegradedReason last_failure = DegradedReason::kNone;
  for (int attempt = 0; attempt <= config_.round_retries; ++attempt) {
    if (stop_.load(std::memory_order_relaxed)) return RoundOutcome::kStopped;
    if (attempt > 0 &&
        !sleep_ms(std::ldexp(config_.retry_backoff_ms, attempt - 1)))
      return RoundOutcome::kStopped;

    auto result = run_attempt(round);
    if (!result) {
      last_failure = DegradedReason::kWatchdogKilled;
      watchdog_total.add();
      {
        std::lock_guard lock{state_mutex_};
        ++watchdog_kills_;
      }
      enter_degraded(DegradedReason::kWatchdogKilled);
      continue;
    }
    if (result->map.mapped_blocks() == 0 && result->map.blocks_probed > 0) {
      // A round that completed but mapped nothing is a failed round: an
      // all-loss fault plan must never wipe the served map.
      last_failure = DegradedReason::kEmptyRound;
      enter_degraded(DegradedReason::kEmptyRound);
      continue;
    }

    // Good round: journal first (WAL discipline — the journal is what a
    // restart resumes from), then publish. An append failure degrades the
    // daemon but the freshly measured map still serves.
    if (journal_.is_open() && !journal_.append_round(round, *result)) {
      std::lock_guard lock{state_mutex_};
      journal_status_ = core::JournalStatus::kIoError;
    }
    publish(round, std::move(*result), false);
    completed_total.add();
    {
      std::lock_guard lock{state_mutex_};
      ++rounds_completed_;
    }
    refresh_gauges();
    return RoundOutcome::kGood;
  }

  failed_total.add();
  {
    std::lock_guard lock{state_mutex_};
    ++rounds_failed_;
  }
  enter_degraded(last_failure);
  refresh_gauges();
  return RoundOutcome::kFailed;
}

std::optional<core::RoundResult> Daemon::run_attempt(std::uint32_t round) {
  core::RoundSpec spec = campaign_.spec_for(round);
  if (env_round_matches("VP_DAEMON_LOSS_ROUND", round))
    spec.faults = loss_injector();

  // Test hook: VP_DAEMON_WEDGE_ROUND=r wedges the first matching attempt
  // (once per process) for VP_DAEMON_WEDGE_MS before probing, so chaos
  // tests can prove the watchdog without an engine that actually hangs.
  double wedge_ms = 0.0;
  if (env_round_matches("VP_DAEMON_WEDGE_ROUND", round)) {
    static std::atomic<bool> fired{false};
    if (!fired.exchange(true)) {
      const char* ms = std::getenv("VP_DAEMON_WEDGE_MS");
      wedge_ms = ms ? std::strtod(ms, nullptr) : 60'000.0;
    }
  }

  // Cross-round arena: round N+1 reuses round N's engine workspaces. The
  // worker holds its own reference; see the member's comment for why an
  // abandoned attempt forces a fresh arena.
  if (arena_ == nullptr) arena_ = std::make_shared<util::RoundArena>();
  std::shared_ptr<util::RoundArena> arena = arena_;
  spec.arena = arena.get();

  auto att = std::make_shared<Attempt>();
  // The worker captures only shared state and const structures owned by
  // the scenario (which outlives the daemon), never `this`: if the
  // watchdog abandons it, the detached thread finishes against its own
  // Attempt and the result is discarded under the mutex.
  const core::ProbeEngine* engine = &scenario_.engine();
  std::shared_ptr<const bgp::RoutingTable> routes = routes_;
  std::thread worker{[att, engine, routes, spec, wedge_ms, arena] {
    if (wedge_ms > 0) {
      // Sleep in slices so an abandoned wedge exits promptly instead of
      // lingering for the full (deliberately long) wedge duration.
      const auto slice = std::chrono::milliseconds{10};
      for (double slept = 0; slept < wedge_ms; slept += 10) {
        {
          std::lock_guard lock{att->mutex};
          if (att->abandoned) return;
        }
        std::this_thread::sleep_for(slice);
      }
    }
    core::RoundResult result = engine->run(*routes, spec);
    std::lock_guard lock{att->mutex};
    if (att->abandoned) return;
    att->result = std::move(result);
    att->done = true;
    att->cv.notify_all();
  }};

  std::unique_lock lock{att->mutex};
  const bool finished = att->cv.wait_for(
      lock, std::chrono::duration<double, std::milli>{config_.watchdog_ms},
      [&] { return att->done; });
  if (finished) {
    lock.unlock();
    worker.join();
    return std::move(att->result);
  }
  att->abandoned = true;
  lock.unlock();
  worker.detach();
  // The zombie worker may still be probing into this arena; drop our
  // reference so the next attempt builds a fresh one and can never race
  // it. The abandoned thread's shared_ptr keeps the old arena alive.
  arena_.reset();
  return std::nullopt;
}

void Daemon::publish(std::uint32_t round, core::RoundResult result,
                     bool from_journal) {
  auto served = std::make_shared<ServedMap>();
  served->result = std::move(result);
  served->round = round;
  served->from_journal = from_journal;
  served->published_at = std::chrono::steady_clock::now();

  std::shared_ptr<const ServedMap> previous;
  {
    std::lock_guard lock{state_mutex_};
    previous = map_;
  }

  // Drift is computed outside the lock (both maps are immutable) so a
  // large diff never blocks query serving.
  DriftReport report;
  if (previous) {
    report.available = true;
    report.from_round = previous->round;
    report.to_round = round;
    report.diff = analysis::diff_catchments(
        scenario_.topo(), previous->result.map, served->result.map, load_);
  }

  std::lock_guard lock{state_mutex_};
  if (report.available) {
    const double moved = report.diff.moved_fraction();
    // Alarm against the *prior* transitions' statistics, then fold the
    // new observation in.
    report.alarm = moved > kDriftAlarmFraction &&
                   (drift_stats_.count() == 0 ||
                    moved > drift_stats_.mean() + 4 * drift_stats_.stddev());
    drift_stats_.add(moved);
    report.mean_moved_fraction = drift_stats_.mean();
    report.stddev_moved_fraction = drift_stats_.stddev();
    drift_ = report;
  }
  map_ = std::move(served);
  const bool journal_ok = journal_status_ != core::JournalStatus::kIoError;
  state_ = journal_ok ? MapState::kFresh : MapState::kDegraded;
  reason_ = journal_ok ? DegradedReason::kNone : DegradedReason::kJournalIo;
}

void Daemon::enter_degraded(DegradedReason reason) {
  std::lock_guard lock{state_mutex_};
  state_ = MapState::kDegraded;
  reason_ = reason;
}

DaemonStatus Daemon::status() const {
  std::lock_guard lock{state_mutex_};
  DaemonStatus s;
  s.state = state_;
  s.reason = reason_;
  if (map_) {
    s.has_map = true;
    s.map_round = map_->round;
    s.map_age_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      map_->published_at)
            .count();
  }
  if (s.state == MapState::kFresh) {
    const double stale_after_ms = config_.stale_after_ms > 0
                                      ? config_.stale_after_ms
                                      : 3.0 * config_.cadence_ms;
    if (stale_after_ms > 0 && s.map_age_seconds * 1000.0 > stale_after_ms)
      s.state = MapState::kStale;
  }
  s.rounds_completed = rounds_completed_;
  s.rounds_failed = rounds_failed_;
  s.watchdog_kills = watchdog_kills_;
  s.rounds_resumed = rounds_resumed_;
  s.journal = journal_status_;
  return s;
}

DriftReport Daemon::drift() const {
  std::lock_guard lock{state_mutex_};
  return drift_;
}

core::JournalStatus Daemon::journal_status() const {
  std::lock_guard lock{state_mutex_};
  return journal_status_;
}

std::shared_ptr<const ServedMap> Daemon::current_map() const {
  std::lock_guard lock{state_mutex_};
  return map_;
}

void Daemon::refresh_gauges() const {
  static auto& state_gauge = obs::metrics().gauge("vp_daemon_state");
  static auto& age_gauge = obs::metrics().gauge("vp_daemon_map_age_seconds");
  const DaemonStatus s = status();
  state_gauge.set(static_cast<double>(static_cast<int>(s.state)));
  age_gauge.set(s.map_age_seconds);
}

net::HttpResponse Daemon::handle(const net::HttpRequest& request) {
  static auto& request_ms = obs::metrics().histogram(
      "vp_serve_request_ms", obs::latency_buckets_ms());
  static auto& block_total =
      obs::metrics().counter("vp_serve_requests_total{endpoint=\"block\"}");
  static auto& load_total =
      obs::metrics().counter("vp_serve_requests_total{endpoint=\"load\"}");
  static auto& healthz_total =
      obs::metrics().counter("vp_serve_requests_total{endpoint=\"healthz\"}");
  static auto& drift_total =
      obs::metrics().counter("vp_serve_requests_total{endpoint=\"drift\"}");
  static auto& map_total =
      obs::metrics().counter("vp_serve_requests_total{endpoint=\"map\"}");
  static auto& metrics_total =
      obs::metrics().counter("vp_serve_requests_total{endpoint=\"metrics\"}");
  static auto& other_total =
      obs::metrics().counter("vp_serve_requests_total{endpoint=\"other\"}");

  const auto t0 = std::chrono::steady_clock::now();
  net::HttpResponse response;
  if (request.path.starts_with("/block/")) {
    block_total.add();
    response = handle_block(request);
  } else if (request.path == "/load") {
    load_total.add();
    response = handle_load(request);
  } else if (request.path == "/healthz") {
    healthz_total.add();
    response = handle_healthz();
  } else if (request.path == "/drift") {
    drift_total.add();
    response = handle_drift();
  } else if (request.path == "/map") {
    map_total.add();
    response = handle_map();
  } else if (request.path == "/metrics") {
    metrics_total.add();
    response = handle_metrics();
  } else {
    other_total.add();
    response = net::HttpResponse::not_found();
  }
  request_ms.observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  return response;
}

net::HttpResponse Daemon::handle_block(const net::HttpRequest& request) {
  static auto& age_hist = obs::metrics().histogram(
      "vp_serve_map_age_seconds", age_buckets_seconds());

  const auto address = net::Ipv4Address::parse(request.path.substr(7));
  if (!address)
    return net::HttpResponse::bad_request("not an IPv4 address");
  const net::Block24 block = net::Block24::containing(*address);

  std::shared_ptr<const ServedMap> served;
  {
    std::lock_guard lock{state_mutex_};
    served = map_;
  }
  const DaemonStatus s = status();
  if (!served) {
    return net::HttpResponse::json(
        std::string{"{\"error\":\"no map yet\",\"map_state\":\""} +
            to_string(s.state) + "\"}",
        503);
  }
  age_hist.observe(s.map_age_seconds);

  const anycast::SiteId site = served->result.map.site_of(block);
  const std::string code =
      site >= 0 ? deployment_.sites[static_cast<std::size_t>(site)].code
                : "UNK";
  std::string body = "{\"block\":\"" + block.to_string() + "\",\"site\":\"" +
                     json_escape(code) +
                     "\",\"site_id\":" + std::to_string(static_cast<int>(site)) +
                     ",\"map_round\":" + std::to_string(served->round) +
                     ",\"map_state\":\"" + to_string(s.state) +
                     "\",\"map_age_seconds\":" + util::fixed(s.map_age_seconds, 3) +
                     "}";
  return net::HttpResponse::json(std::move(body));
}

net::HttpResponse Daemon::handle_load(const net::HttpRequest& request) {
  // config=SITE=N,SITE=N — per-site prepend depths layered onto the
  // daemon's base deployment; omitted sites keep their configuration.
  anycast::Deployment target = deployment_;
  const std::string config = request.param("config");
  std::string_view rest = config;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0)
      return net::HttpResponse::bad_request("config must be SITE=N,SITE=N");
    const auto site = target.site_by_code(pair.substr(0, eq));
    if (!site) {
      return net::HttpResponse::bad_request(
          "unknown site '" + std::string{pair.substr(0, eq)} + "'");
    }
    // The whole token is the depth, so "abc", "" and "2x" are errors.
    const auto prepend =
        util::parse_count(pair.substr(eq + 1), anycast::kMaxPrepend);
    if (!prepend)
      return net::HttpResponse::bad_request(
          "prepend depth must be an integer in [0, " +
          std::to_string(anycast::kMaxPrepend) + "]");
    target.sites[static_cast<std::size_t>(*site)].prepend = *prepend;
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }

  // The delta session walks configurations incrementally: consecutive
  // /load queries differ in a handful of sites, so each answer recomputes
  // only the affected-AS set instead of re-routing the Internet.
  std::shared_ptr<const bgp::RoutingTable> table;
  {
    std::lock_guard lock{session_mutex_};
    if (!session_) {
      // DeltaSession is not movable, so it is built in place.
      session_ = std::make_unique<analysis::DeltaSession>(
          scenario_.topo(), deployment_, scenario_.routing_options());
    }
    table = session_->route_to(target);
  }

  // The paper's §5.4 load split, each querying block at its site under
  // that table.
  const analysis::LoadSplit split = analysis::split_load(
      load_, deployment_.sites.size(),
      [&table](net::Block24 b) { return table->site_for_block(b); });

  std::string body = "{\"config\":\"" + json_escape(config) + "\",\"sites\":[";
  for (std::size_t s = 0; s < deployment_.sites.size(); ++s) {
    if (s > 0) body += ',';
    body += "{\"site\":\"" + json_escape(deployment_.sites[s].code) +
            "\",\"prepend\":" +
            std::to_string(target.sites[s].prepend) + ",\"daily_queries\":" +
            util::fixed(split.site_queries[s], 1) + ",\"share\":" +
            util::fixed(split.fraction_to(static_cast<anycast::SiteId>(s)), 4) +
            "}";
  }
  body += "],\"unknown_queries\":" + util::fixed(split.unknown_queries, 1) + "}";
  return net::HttpResponse::json(std::move(body));
}

net::HttpResponse Daemon::handle_healthz() {
  refresh_gauges();
  const DaemonStatus s = status();
  std::string body =
      std::string{"{\"state\":\""} + to_string(s.state) + "\",\"reason\":\"" +
      to_string(s.reason) + "\",\"has_map\":" + (s.has_map ? "true" : "false") +
      ",\"map_round\":" + std::to_string(s.map_round) +
      ",\"map_age_seconds\":" + util::fixed(s.map_age_seconds, 3) +
      ",\"rounds_completed\":" + std::to_string(s.rounds_completed) +
      ",\"rounds_failed\":" + std::to_string(s.rounds_failed) +
      ",\"watchdog_kills\":" + std::to_string(s.watchdog_kills) +
      ",\"rounds_resumed\":" + std::to_string(s.rounds_resumed) +
      ",\"journal\":\"" + core::to_string(s.journal) + "\"}";
  return net::HttpResponse::json(std::move(body), s.has_map ? 200 : 503);
}

net::HttpResponse Daemon::handle_drift() {
  const DriftReport report = drift();
  if (!report.available)
    return net::HttpResponse::json("{\"available\":false}");
  std::string body =
      "{\"available\":true,\"from_round\":" + std::to_string(report.from_round) +
      ",\"to_round\":" + std::to_string(report.to_round) +
      ",\"stable_blocks\":" + std::to_string(report.diff.stable_blocks) +
      ",\"moved_blocks\":" + std::to_string(report.diff.moved_blocks) +
      ",\"appeared_blocks\":" + std::to_string(report.diff.appeared_blocks) +
      ",\"vanished_blocks\":" + std::to_string(report.diff.vanished_blocks) +
      ",\"moved_fraction\":" + util::fixed(report.diff.moved_fraction(), 6) +
      ",\"moved_queries\":" + util::fixed(report.diff.moved_queries, 1) +
      ",\"mean_moved_fraction\":" + util::fixed(report.mean_moved_fraction, 6) +
      ",\"stddev_moved_fraction\":" +
      util::fixed(report.stddev_moved_fraction, 6) +
      ",\"alarm\":" + (report.alarm ? "true" : "false") + ",\"flows\":[";
  const std::size_t flow_count = std::min<std::size_t>(report.diff.flows.size(), 5);
  for (std::size_t i = 0; i < flow_count; ++i) {
    const analysis::SitePairFlow& flow = report.diff.flows[i];
    const auto code = [this](anycast::SiteId site) -> std::string {
      return site >= 0 ? deployment_.sites[static_cast<std::size_t>(site)].code
                       : "UNK";
    };
    if (i > 0) body += ',';
    body += "{\"from\":\"" + json_escape(code(flow.from)) + "\",\"to\":\"" +
            json_escape(code(flow.to)) +
            "\",\"blocks\":" + std::to_string(flow.blocks) +
            ",\"daily_queries\":" + util::fixed(flow.daily_queries, 1) + "}";
  }
  body += "]}";
  return net::HttpResponse::json(std::move(body));
}

net::HttpResponse Daemon::handle_map() {
  std::shared_ptr<const ServedMap> served = current_map();
  if (!served)
    return net::HttpResponse::text("no map yet\n", 503);
  // Byte-identical to core::write_catchment_csv of the served round —
  // the chaos harness diffs this directly against offline vpctl output.
  // The body aliases the snapshot's rendered CSV, which keeps the
  // snapshot alive until the response is sent; nothing is copied.
  net::HttpResponse response;
  response.content_type = "text/csv";
  response.body = std::shared_ptr<const std::string>{
      served, &served->csv(deployment_)};
  return response;
}

const std::string& ServedMap::csv(const anycast::Deployment& deployment) const {
  static auto& renders = obs::metrics().counter("vp_serve_map_renders_total");
  std::call_once(csv_once_, [&] {
    csv_ = core::catchment_csv(result, deployment);
    renders.add();
  });
  return csv_;
}

net::HttpResponse Daemon::handle_metrics() {
  refresh_gauges();
  return net::HttpResponse::text(
      obs::to_prometheus(obs::metrics().snapshot()));
}

}  // namespace vp::service
