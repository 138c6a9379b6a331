// The `serve` job: vpd in-process — a Daemon measuring faulted rounds back
// to back behind HttpServer on loopback, with one client connection at a time:
//   first:  /block/<ip> at a fixed rate, closed loop, each latency timed
//           from the request's due time (so queueing behind a slow request
//           counts, instead of silently delaying the schedule);
//   then:   /map and /load?config=... alternating, back to back.
// The daemon's publish times give the round period throughout.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "bench.hpp"
#include "core/dataset_io.hpp"
#include "http_client.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// /block requests per second: enough to exercise lookups beside the rounds
// without making the client stream a load of its own.
constexpr double kBlockRate = 200.0;
constexpr std::size_t kBlockSample = 4096;
constexpr double kFirstMapTimeout = 120.0;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Fault rates stay those of the default seed's plan, so that every seed
/// measures the same amount of loss and retrying; the seed picks which
/// packets the faults hit.
sim::FaultPlan fault_plan(std::uint64_t seed) {
  sim::FaultPlan plan = sim::FaultPlan::from_seed(derive(kDefaultSeed, 0xfa17));
  plan.seed = derive(seed, 0xfa17);
  return plan;
}

[[noreturn]] void fatal(const char* what) {
  std::fprintf(stderr, "vp_perfbench: %s\n", what);
  std::_Exit(1);
}

}  // namespace

ServeJob::ServeJob(const World& world, std::uint32_t rounds)
    : world_(world),
      faults_(fault_plan(world.seed)),
      load_config_(load_config(world)) {
  service::DaemonConfig config;
  config.probe.max_retries = 2;
  config.rounds = rounds;
  config.threads = kProbeThreads;
  config.faults = &faults_;
  config.journal_path = world.out_dir + "/serve.journal";
  config.resume = false;
  daemon_ = std::make_unique<service::Daemon>(*world.scenario,
                                              world.deployment(), config);
  if (!server_.start(0, [this](const net::HttpRequest& r) { return handle(r); }))
    fatal("cannot bind a loopback port");
  loop_ = std::thread{[this] { daemon_->run_rounds(); }};

  std::shared_ptr<const service::ServedMap> first;
  {
    Span span{"setup.first_map"};
    const double give_up = now_s() + kFirstMapTimeout;
    while ((first = daemon_->current_map()) == nullptr) {
      if (now_s() > give_up) fatal("the daemon published no map");
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  }

  // Seeded sample of blocks the first map covers, queried by address.
  const auto entries = world.scenario->hitlist().entries();
  std::uint64_t h = derive(world.seed, 0xb10c);
  for (int tries = 0; block_targets_.size() < kBlockSample && tries < (1 << 20);
       ++tries) {
    h = derive(h, static_cast<std::uint64_t>(tries));
    const hitlist::Entry& entry = entries[h % entries.size()];
    if (first->result.map.site_of(entry.block) != anycast::kUnknownSite)
      block_targets_.push_back("/block/" + entry.target.to_string());
  }
  if (block_targets_.empty()) fatal("the first map covers no sampled block");

  // The first /load builds the daemon's delta-routing session; pay that
  // here, once, like the first map.
  Span span{"setup.first_load"};
  if (http_get(server_.port(), "/load?config=" + load_config_).status != 200)
    fatal("the daemon refused /load");
}

ServeJob::~ServeJob() {
  if (stopped_) return;
  daemon_->request_stop();
  server_.stop();
  loop_.join();
  std::filesystem::remove(world_.out_dir + "/serve.journal");
}

net::HttpResponse ServeJob::handle(const net::HttpRequest& request) {
  const char* name = request.path.starts_with("/block/") ? "service.handle_block"
                     : request.path == "/map"            ? "service.handle_map"
                     : request.path == "/load"           ? "service.handle_load"
                                                         : "service.handle_other";
  Span span{name};
  return daemon_->handle(request);
}

void ServeJob::run(double seconds, Report& report, const std::string& prefix) {
  // The first fifth of the window: /block lookups beside the daemon's
  // rounds. The rest: /map and /load back to back. Lookups queued behind
  // back-to-back renders would time the queue, and renders paced to leave
  // room for lookups would give too few /map samples.
  const double lookup_s = seconds / 5;
  published_.clear();
  newest_ = daemon_->current_map()->round;
  ControlOut control_out;
  {
    Span span{"serve.window"};
    block_stream(lookup_s, report, prefix);
    control_stream(seconds - lookup_s, report, control_out);
  }
  // Round period: the daemon's publish times of consecutive rounds, both
  // published inside the window.
  for (std::size_t i = 1; i < published_.size(); ++i) {
    const auto& [round, at] = published_[i];
    const auto& [prev_round, prev_at] = published_[i - 1];
    if (round != prev_round + 1) continue;
    report.samples[prefix + "round_s"].push_back(
        std::chrono::duration<double>(at - prev_at).count());
  }
  auto& map_out = report.samples[prefix + "map_ms"];
  map_out.insert(map_out.end(), control_out.map_ms.begin(),
                 control_out.map_ms.end());
  auto& load_out = report.samples[prefix + "load_ms"];
  load_out.insert(load_out.end(), control_out.load_ms.begin(),
                  control_out.load_ms.end());
  requests_ += control_out.requests;
  request_failures_ += control_out.failures;
  if (control_out.map_bytes > 0)
    report.counters["service.map_bytes"] =
        static_cast<double>(control_out.map_bytes);

  // One /map body per run must equal write_catchment_csv of the snapshot
  // it was rendered from; compared after the window so the check does not
  // steal the window's CPU time. If no /map of the window could be paired
  // with its snapshot (a round was published mid-request every time),
  // pair one outside the window.
  for (int attempt = 0; !map_checked_ && attempt < 20; ++attempt) {
    if (control_out.map_snapshot == nullptr) {
      const auto before = daemon_->current_map();
      const HttpResult res = http_get(server_.port(), "/map");
      if (res.ok && res.status == 200 && before == daemon_->current_map()) {
        control_out.map_snapshot = before;
        control_out.map_body = res.body;
      }
    }
    if (control_out.map_snapshot != nullptr) {
      std::ostringstream expected;
      core::write_catchment_csv(expected, control_out.map_snapshot->result,
                                world_.deployment());
      map_checked_ = true;
      map_ok_ = control_out.map_body == expected.str();
    }
  }
  report.check("serve.map_matches_csv", map_checked_ && map_ok_);
  report.attempted += requests_;
  report.failed += request_failures_;
  requests_ = request_failures_ = 0;
}

void ServeJob::track_publishes(Report& report) {
  const auto snapshot = daemon_->current_map();
  if (snapshot->round <= newest_) return;
  newest_ = snapshot->round;
  published_.emplace_back(snapshot->round, snapshot->published_at);
  if (!Tracer::instance().enabled()) return;
  // Faulted-round accounting of the snapshot just published.
  const sim::FaultStats& f = snapshot->result.faults;
  const core::CleaningStats& c = snapshot->result.map.cleaning;
  const auto count = [&](const char* name, double v) {
    report.layer[name].push_back(v);
  };
  count("sim.probes_sent", static_cast<double>(snapshot->result.map.probes_sent));
  count("sim.retries", static_cast<double>(f.retries));
  count("sim.fault.probes_lost", static_cast<double>(f.probes_lost));
  count("sim.fault.replies_lost", static_cast<double>(f.replies_lost));
  count("sim.fault.rate_limited", static_cast<double>(f.rate_limited));
  count("sim.fault.outage_drops", static_cast<double>(f.outage_drops));
  count("sim.fault.withdrawn", static_cast<double>(f.withdrawn));
  count("sim.fault.diverted", static_cast<double>(f.diverted));
  count("sim.fault.delayed", static_cast<double>(f.delayed));
  count("sim.fault.recovered", static_cast<double>(f.recovered));
  count("serve.kept_ratio", c.raw_replies ? static_cast<double>(c.kept) /
                                                static_cast<double>(c.raw_replies)
                                          : 0.0);
}

void ServeJob::block_stream(double seconds, Report& report,
                            const std::string& prefix) {
  std::vector<double> latency_ms;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = after(start, seconds);
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due =
        after(start, static_cast<double>(i) / kBlockRate);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    HttpResult res;
    {
      Span span{"client.block"};
      res = http_get(server_.port(), block_targets_[i % block_targets_.size()]);
    }
    latency_ms.push_back(ms_since(due));
    ++requests_;
    if (!res.ok || res.status != 200) ++request_failures_;
    track_publishes(report);
  }
  auto& out = report.samples[prefix + "block_ms"];
  out.insert(out.end(), latency_ms.begin(), latency_ms.end());
}

void ServeJob::control_stream(double seconds, Report& report, ControlOut& out) {
  const bool want_map_body = !map_checked_;
  const Clock::time_point end = after(Clock::now(), seconds);
  // Back to back, each latency timed from sending. A window too short for
  // one round interval runs on until it has one.
  const Clock::time_point give_up = after(end, kFirstMapTimeout);
  const auto interval_seen = [&] {
    for (std::size_t i = 1; i < published_.size(); ++i)
      if (published_[i].first == published_[i - 1].first + 1) return true;
    return false;
  };
  for (std::uint64_t k = 0;; ++k) {
    const Clock::time_point sent = Clock::now();
    if (sent >= end && k >= 2 && (interval_seen() || sent >= give_up)) break;
    HttpResult res;
    ++out.requests;
    if (k % 2 == 0) {
      const auto before = daemon_->current_map();
      {
        Span span{"client.map"};
        res = http_get(server_.port(), "/map");
      }
      out.map_ms.push_back(ms_since(sent));
      if (res.ok) out.map_bytes = res.body.size();
      if (res.ok && res.status == 200 && want_map_body &&
          out.map_snapshot == nullptr && before == daemon_->current_map()) {
        out.map_snapshot = before;
        out.map_body = std::move(res.body);
      }
    } else {
      // Back to the base configuration, then to the seeded one, and so on
      // (set-up left the session at the seeded one).
      const bool base = loads_sent_++ % 2 == 0;
      {
        Span span{"client.load"};
        res = http_get(server_.port(),
                       "/load?config=" + (base ? std::string{} : load_config_));
      }
      out.load_ms.push_back(ms_since(sent));
    }
    if (!res.ok || res.status != 200) ++out.failures;
    track_publishes(report);
  }
}

void ServeJob::stop(Report& report) {
  if (stopped_) return;
  stopped_ = true;
  daemon_->request_stop();
  server_.stop();
  loop_.join();
  const service::DaemonStatus status = daemon_->status();
  report.check("serve.no_failed_rounds",
               status.rounds_failed == 0 && status.watchdog_kills == 0);
  report.check("serve.journal", status.journal == core::JournalStatus::kFresh);
  report.failed += status.rounds_failed + status.watchdog_kills;
  std::filesystem::remove(world_.out_dir + "/serve.journal");
}

}  // namespace perfbench
