// vpd — verfploeterd, the continuous anycast-mapping daemon.
//
// Runs measurement rounds on an interval, keeps the live catchment map
// in memory through every failure mode (supervised watchdog loop,
// crash-safe journal resume, degraded-mode serving — see
// src/service/daemon.hpp), and answers queries over a minimal local
// HTTP/JSON listener:
//
//   vpd --rounds 6 --journal j.bin --resume --listen 0 --port-file p
//
//   GET /block/<ip>   owning site + map round/age/state
//   GET /load?config=SITE=N,...   predicted per-site load
//   GET /healthz      state machine + counters
//   GET /drift        change-point report between the last good rounds
//   GET /map          the served catchment as CSV
//   GET /metrics      Prometheus registry
//
// SIGTERM/SIGINT wind the round loop down cleanly: the in-flight round
// finishes (or hits its watchdog), its journal append completes, metrics
// flush, exit 0. Exit codes 4/5 mirror vpctl campaign (journal
// fingerprint mismatch / corruption), 6 = artifact write failure.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "args.hpp"
#include "net/http_server.hpp"
#include "service/daemon.hpp"
#include "util/atomic_file.hpp"

using namespace vp;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: vpd [options]\n"
      "\n"
      "scenario:\n"
      "  --scale F          Internet size multiplier (default 0.4)\n"
      "  --seed N           simulation seed (default 42)\n"
      "  --deployment NAME  broot (default) or tangled\n"
      "measurement loop:\n"
      "  --rounds N         stop measuring after N rounds (default 0 =\n"
      "                     run until signalled)\n"
      "  --interval-min M   simulated minutes between rounds (default 15;\n"
      "                     campaign spacing policy, part of the journal\n"
      "                     fingerprint)\n"
      "  --cadence-ms T     wall-clock delay between round starts\n"
      "                     (default 0 = back to back)\n"
      "  --threads N        probe workers per round (default 1; 0 = all)\n"
      "  --retries/--timeout-ms/--backoff-ms   probe retry knobs (as vpctl)\n"
      "  --fault-seed N     seeded random fault plan for every round\n"
      "supervision:\n"
      "  --watchdog-ms T    abandon a round attempt after T ms of wall\n"
      "                     clock (default 30000)\n"
      "  --round-retries N  extra attempts per round before it fails\n"
      "                     (default 1)\n"
      "  --stale-after-ms T report the map stale beyond this age\n"
      "                     (default 3 x cadence)\n"
      "journal:\n"
      "  --journal PATH     append completed rounds to a crash-safe\n"
      "                     journal (vpctl-compatible)\n"
      "  --resume           resume the live map from an existing journal\n"
      "serving:\n"
      "  --listen PORT      serve HTTP on 127.0.0.1:PORT (0 = ephemeral);\n"
      "                     without --listen nothing is served\n"
      "  --port-file PATH   write the bound port (atomic; for tests)\n"
      "  --exit-after-rounds  exit once the round budget is spent instead\n"
      "                     of serving until signalled\n"
      "  --metrics-out FILE dump the metrics registry on exit\n"
      "  --no-metrics       disable metric collection\n"
      "\n"
      "exit codes: 0 clean shutdown, 2 usage (also a numeric option\n"
      "  that is not a number, or a count or port out of range),\n"
      "  4 journal fingerprint mismatch,\n"
      "  5 journal corrupt, 6 artifact write failed\n");
  return 2;
}

/// Signal handlers may only touch lock-free state: the flag is polled by
/// the main thread, which forwards it to Daemon::request_stop().
volatile std::sig_atomic_t g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) try {
  const auto args =
      cli::parse_args(argc, argv, /*has_command=*/false,
                      {"resume", "no-metrics", "exit-after-rounds"});
  if (!args) return usage();
  if (args->has("no-metrics")) obs::metrics().set_enabled(false);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const analysis::Scenario scenario = cli::make_scenario(*args);
  const anycast::Deployment& deployment =
      cli::pick_deployment(scenario, *args);

  service::DaemonConfig config;
  config.probe.measurement_id = 100;  // vpctl campaign's base id
  cli::apply_retry_args(config.probe, *args);
  config.rounds = args->get_count<std::uint32_t>("rounds", 0);
  config.sim_interval =
      util::SimTime::from_minutes(args->get_double("interval-min", 15.0));
  config.cadence_ms = args->get_double("cadence-ms", 0.0);
  config.threads = args->get_count("threads", 1u);
  config.watchdog_ms = args->get_double("watchdog-ms", 30'000.0);
  config.round_retries = args->get_count("round-retries", 1);
  config.stale_after_ms = args->get_double("stale-after-ms", 0.0);
  config.journal_path = args->get("journal", "");
  config.resume = args->has("resume");
  const auto injector = cli::make_injector(*args);
  if (injector) config.faults = &*injector;

  service::Daemon daemon{scenario, deployment, config};

  net::HttpServer server;
  if (args->has("listen")) {
    const auto port = args->get_count<std::uint16_t>("listen", 0);
    if (!server.start(port, [&daemon](const net::HttpRequest& request) {
          return daemon.handle(request);
        })) {
      std::fprintf(stderr, "error: cannot bind 127.0.0.1:%u\n",
                   static_cast<unsigned>(port));
      return 1;
    }
    std::printf("serving on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    if (args->has("port-file") &&
        !util::atomic_write_file(args->get("port-file", ""),
                                 std::to_string(server.port()) + "\n")) {
      std::fprintf(stderr, "error: cannot write port file\n");
      return cli::kExitWriteFailed;
    }
  }

  // The round loop runs on its own thread so serving never blocks on a
  // measurement; main polls the signal flag and forwards it.
  bool loop_ok = true;
  std::atomic<bool> rounds_done{false};
  std::thread rounds{[&daemon, &loop_ok, &rounds_done] {
    loop_ok = daemon.run_rounds();
    rounds_done.store(true, std::memory_order_release);
  }};
  // With a listener the daemon keeps serving after the round budget is
  // spent (that is the point of a daemon); --exit-after-rounds turns it
  // back into a journal-producing batch run for the chaos harness.
  const bool park = args->has("listen") && !args->has("exit-after-rounds");
  while (!g_signalled &&
         (park || !rounds_done.load(std::memory_order_acquire))) {
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
  }
  daemon.request_stop();
  rounds.join();
  server.stop();

  int rc = 0;
  if (!loop_ok) {
    rc = cli::journal_refusal(daemon.journal_status());
    if (rc == 0) rc = 1;
  } else {
    const service::DaemonStatus status = daemon.status();
    std::printf("shutdown: %u rounds completed (%u resumed), %u failed, "
                "%u watchdog kills, state %s\n",
                status.rounds_completed, status.rounds_resumed,
                status.rounds_failed, status.watchdog_kills,
                service::to_string(status.state));
  }
  return cli::finish_metrics(*args, rc);
} catch (const cli::BadNumber& bad) {
  return bad.report();
}
