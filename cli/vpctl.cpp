// vpctl — command-line driver for the Verfploeter library.
//
// Runs measurements against the simulated Internet and produces the same
// artifacts an operator of the real system works with: catchment CSVs,
// stability reports, load predictions, and site recommendations.
//
//   vpctl scan      [--deployment broot|tangled] [--prepend SITE=N]
//                   [--out catchment.csv]
//   vpctl sweep     [--deployment ...] [--site CODE] [--max-prepend N]
//   vpctl campaign  [--deployment ...] [--rounds N] [--interval-min M]
//   vpctl atlas     [--deployment ...]
//   vpctl predict   [--catchment file.csv] [--date apr|may]
//   vpctl recommend [--candidates N]
//   vpctl export-load [--date apr|may] [--out load.csv]
//   vpctl gen       [--gen-ases N] [--gen-blocks N] [--out topo.vpt]
//                   [--load topo.vpt] [--probe]
//   vpctl playbook  [--attack KINDS] [--attack-seed N] [--magnitude F]
//                   [--target SITE] [--headroom F] [--max-prepend N]
//                   [--no-withdraw] [--exhaustive] [--top K]
//                   [--out playbook.csv|.json]
//
// Global flags: --scale F (Internet size, default 0.4), --seed N,
// --threads N (probe workers per round; 0 = all hardware threads).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "agility/attack.hpp"
#include "agility/playbook.hpp"
#include "analysis/latency.hpp"
#include "analysis/load_analysis.hpp"
#include "analysis/stability.hpp"
#include "anycast/deployment.hpp"
#include "args.hpp"
#include "bgp/routing_engine.hpp"
#include "core/campaign.hpp"
#include "core/dataset_io.hpp"
#include "topology/scale_generator.hpp"
#include "topology/topo_io.hpp"
#include "util/atomic_file.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace vp;

namespace {

using cli::apply_retry_args;
using cli::Args;
using cli::kExitInterrupted;
using cli::kExitResumed;
using cli::kExitWriteFailed;
using cli::make_injector;
using cli::pick_deployment;

/// Set by the signal handler, polled by Campaign between rounds. Signal
/// handlers may only touch lock-free atomics; everything else (the final
/// journal append, the metrics flush) happens on the normal path after
/// the campaign loop notices the flag.
std::atomic<bool> g_interrupted{false};

void on_signal(int) { g_interrupted.store(true, std::memory_order_relaxed); }

int usage() {
  std::fprintf(
      stderr,
      "usage: vpctl <command> [options]\n"
      "\n"
      "commands:\n"
      "  scan         run one Verfploeter round, print the catchment split\n"
      "  sweep        prepend sweep over one site, one round per config\n"
      "  campaign     run a multi-round stability campaign (Figure 9 style)\n"
      "  atlas        run a RIPE-Atlas-style campaign for comparison\n"
      "  predict      predict per-site load from a catchment + query logs\n"
      "  recommend    suggest new site locations from measured RTTs\n"
      "  export-load  write the per-block query-log dataset as CSV\n"
      "  gen          build an Internet with the sharded scale generator\n"
      "  playbook     search TE responses to attack workloads (Agility\n"
      "               style): best prepend/withdraw config per attack\n"
      "\n"
      "common options:\n"
      "  --scale F          Internet size multiplier (default 0.4 ~ 48k /24s)\n"
      "  --seed N           simulation seed (default 42)\n"
      "  --deployment NAME  broot (default) or tangled\n"
      "  --threads N        probe workers per round (default 1; 0 = all\n"
      "                     hardware threads; result is identical)\n"
      "  --retries N        retry probes that saw no reply within the\n"
      "                     timeout, up to N times (default 0)\n"
      "  --timeout-ms T     per-probe reply timeout (default 1000)\n"
      "  --backoff-ms B     base retry backoff, doubled per retry\n"
      "                     (default 250)\n"
      "  --fault-seed N     inject a seeded random fault plan (loss,\n"
      "                     rate-limiting, outages, route churn)\n"
      "  --metrics-out FILE dump the run's metrics registry on exit\n"
      "                     (.json = JSON, .prom/.txt = Prometheus text)\n"
      "  --no-metrics       disable metric collection (results identical)\n"
      "scan options:\n"
      "  --prepend SITE=N   AS-prepend the SITE announcement N times\n"
      "                     (N in 0..16)\n"
      "  --out FILE         write the catchment as CSV\n"
      "sweep options:\n"
      "  --site CODE        site whose announcement is prepended\n"
      "                     (default MIA)\n"
      "  --max-prepend N    sweep prepend 0..N (default 3, N <= 16); the\n"
      "                     sweep is one incremental routing session, so\n"
      "                     each step recomputes only the ASes whose best\n"
      "                     path changes\n"
      "campaign options:\n"
      "  --rounds N         number of rounds (default 16)\n"
      "  --interval-min M   minutes between rounds (default 15)\n"
      "  --concurrency N    rounds measured in parallel (default 1)\n"
      "  --journal PATH     append each completed round to a crash-safe\n"
      "                     journal; with --resume, rounds already in the\n"
      "                     journal are loaded instead of re-run\n"
      "  --resume           resume from an existing --journal file\n"
      "  --out FILE         write every round's catchment as one CSV\n"
      "                     (atomic replace; byte-stable across resumes)\n"
      "campaign exit codes: 0 ran fresh, 3 completed after a resume,\n"
      "  4 journal belongs to a different config, 5 journal corrupt,\n"
      "  7 interrupted by SIGINT/SIGTERM (current round + journal append\n"
      "  finished; journal is a resumable prefix)\n"
      "all commands exit 6 when an output file (--out/--metrics-out) or\n"
      "  the journal cannot be written, and 2 when a numeric option is\n"
      "  not a number, or a count (rounds, threads, ...) is negative or\n"
      "  out of range\n"
      "predict options:\n"
      "  --catchment FILE   reuse an exported catchment instead of scanning\n"
      "  --date apr|may     which load dataset to weight with (default may)\n"
      "recommend options:\n"
      "  --candidates N     how many suggestions (default 5)\n"
      "export-load options:\n"
      "  --date apr|may     dataset date (default may)\n"
      "  --out FILE         output path (default load.csv)\n"
      "gen options:\n"
      "  --gen-ases N       AS count (default 10000)\n"
      "  --gen-blocks N     target /24 count (default 13 per AS)\n"
      "  --gen-transits N   tier-1 clique size (default 16)\n"
      "  --gen-shard N      ASes per shard (any value, same topology)\n"
      "  --multihoming F    mean extra providers per stub (default 0.35)\n"
      "  --peering F        regional lateral-peering chance (default 0.15)\n"
      "  --gen-seed N       generator seed (default 42)\n"
      "  --sites N          generated anycast sites for --probe (default 4)\n"
      "  --out FILE         save the topology (binary, reload with --load)\n"
      "  --load FILE        load a saved topology instead of generating\n"
      "  --probe            run one Verfploeter round over the generated\n"
      "                     Internet (generated deployment at the transit\n"
      "                     core) and print the catchment split\n"
      "playbook options:\n"
      "  --attack KINDS     comma list of polarized,flash,spoofed,\n"
      "                     volumetric (default: all four)\n"
      "  --attack-seed N    attack workload seed (default 1)\n"
      "  --magnitude F      attack volume as a multiple of the baseline\n"
      "                     load (default 4.0)\n"
      "  --target SITE      catchment the targeted attacks concentrate\n"
      "                     in (default: seed-chosen enabled site)\n"
      "  --headroom F       per-site capacity = F x fair share of the\n"
      "                     legitimate baseline (default 1.6)\n"
      "  --max-prepend N    prepend depths searched, 0..N (default 3,\n"
      "                     N <= 16)\n"
      "  --no-withdraw      exclude site withdrawal from the search\n"
      "  --exhaustive       search the full per-site action product\n"
      "                     instead of the staged single+pair search\n"
      "  --top K            ranked responses kept per attack (default 5)\n"
      "  --date apr|may     load dataset for baseline + capacity\n"
      "  --out FILE         write the playbook (.json = JSON, else CSV)\n");
  return 2;
}

std::uint64_t load_date_seed(const Args& args) {
  return args.get("date", "may") == "apr" ? 0x20170412ull : 0x20170515ull;
}

/// Renders a live progress line from the engine's callbacks. Shared by
/// every round of a campaign, so state is guarded: concurrent rounds
/// interleave their updates on one line, keyed by round index.
class ProgressObserver : public core::RoundObserver {
 public:
  void on_probe_progress(const core::RoundSpec& spec, std::uint64_t sent,
                         std::uint64_t total) override {
    std::lock_guard lock{mutex_};
    std::printf("\r\033[Kround %u: %s / %s probes", spec.round,
                util::with_commas(sent).c_str(),
                util::with_commas(total).c_str());
    std::fflush(stdout);
  }
  void on_round_complete(const core::RoundSpec& spec,
                         const core::RoundResult& result) override {
    std::lock_guard lock{mutex_};
    std::printf("\r\033[Kround %u: %s probes, %s replies kept, %s dropped\n",
                spec.round, util::with_commas(result.map.probes_sent).c_str(),
                util::with_commas(result.map.cleaning.kept).c_str(),
                util::with_commas(result.map.cleaning.dropped()).c_str());
  }
  void on_metrics(const core::RoundSpec& spec,
                  const core::RoundMetrics& metrics) override {
    std::lock_guard lock{mutex_};
    std::printf(
        "round %u: %s wall (probe phase %s), %s probes/s, "
        "RTT p50 %s ms p95 %s ms\n",
        spec.round, (util::fixed(metrics.wall_ms, 1) + " ms").c_str(),
        (util::fixed(metrics.probe_phase_ms, 1) + " ms").c_str(),
        util::si_count(metrics.probes_per_sec).c_str(),
        util::fixed(metrics.rtt_p50_ms, 1).c_str(),
        util::fixed(metrics.rtt_p95_ms, 1).c_str());
  }

 private:
  std::mutex mutex_;
};

unsigned probe_threads(const Args& args) {
  return args.get_count("threads", 1u);
}

void print_fault_summary(const sim::FaultStats& faults) {
  if (faults.probes_lost + faults.replies_dropped() + faults.retries == 0)
    return;
  std::printf(
      "faults: %s probes lost, %s replies dropped (%s rate-limited, %s "
      "outage, %s withdrawn), %s diverted, %s delayed\n",
      util::with_commas(faults.probes_lost).c_str(),
      util::with_commas(faults.replies_dropped()).c_str(),
      util::with_commas(faults.rate_limited).c_str(),
      util::with_commas(faults.outage_drops).c_str(),
      util::with_commas(faults.withdrawn).c_str(),
      util::with_commas(faults.diverted).c_str(),
      util::with_commas(faults.delayed).c_str());
  if (faults.retries > 0) {
    std::printf("retries: %s sent, %s probes recovered by a retry\n",
                util::with_commas(faults.retries).c_str(),
                util::with_commas(faults.recovered).c_str());
  }
}

void print_catchment_summary(const anycast::Deployment& deployment,
                             const core::RoundResult& round) {
  std::printf("probed %s blocks, mapped %s (%s)\n",
              util::with_commas(round.map.blocks_probed).c_str(),
              util::with_commas(round.map.mapped_blocks()).c_str(),
              util::percent(static_cast<double>(round.map.mapped_blocks()) /
                            static_cast<double>(round.map.blocks_probed))
                  .c_str());
  util::Table table{{"site", "/24 blocks", "share"}, {util::Align::kLeft}};
  const auto counts = round.map.per_site_counts(deployment.sites.size());
  for (std::size_t s = 0; s < counts.size(); ++s) {
    table.add_row(
        {deployment.sites[s].code, util::with_commas(counts[s]),
         util::percent(static_cast<double>(counts[s]) /
                       static_cast<double>(round.map.mapped_blocks()))});
  }
  std::printf("%s", table.to_string().c_str());
  const auto& cleaning = round.map.cleaning;
  std::printf(
      "cleaning: %s raw replies; dropped %s dup, %s unsolicited, %s late\n",
      util::with_commas(cleaning.raw_replies).c_str(),
      util::with_commas(cleaning.duplicates).c_str(),
      util::with_commas(cleaning.unsolicited).c_str(),
      util::with_commas(cleaning.late).c_str());
}

core::RoundResult run_scan(const analysis::Scenario& scenario,
                           const anycast::Deployment& deployment,
                           std::uint32_t round_index, const Args& args) {
  const auto routes_ptr = scenario.route(deployment);
  const auto& routes = *routes_ptr;
  core::RoundSpec spec;
  spec.probe.measurement_id = 9000 + round_index;
  apply_retry_args(spec.probe, args);
  spec.round = round_index;
  spec.threads = probe_threads(args);
  const auto injector = make_injector(args);
  if (injector) spec.faults = &*injector;
  ProgressObserver progress;
  return scenario.engine().run(routes, spec, &progress);
}

int cmd_scan(const Args& args) {
  const auto scenario = cli::make_scenario(args);
  anycast::Deployment deployment = pick_deployment(scenario, args);
  if (args.has("prepend")) {
    const std::string spec = args.get("prepend", "");
    const auto eq = spec.find('=');
    if (eq == std::string::npos) return usage();
    const std::string code = spec.substr(0, eq);
    if (!deployment.site_by_code(code)) {
      std::fprintf(stderr, "error: deployment has no site '%s'\n",
                   code.c_str());
      return usage();
    }
    const auto depth = util::parse_count(std::string_view{spec}.substr(eq + 1),
                                        anycast::kMaxPrepend);
    if (!depth) throw cli::bad_count("prepend", anycast::kMaxPrepend);
    deployment = deployment.with_prepend(code, *depth);
    std::printf("prepending: %s\n", spec.c_str());
  }
  const auto round = run_scan(scenario, deployment, 0, args);
  print_catchment_summary(deployment, round);
  print_fault_summary(round.faults);
  if (args.has("out")) {
    const std::string path = args.get("out", "catchment.csv");
    if (!core::save_catchment(path, round, deployment)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return kExitWriteFailed;
    }
    std::printf("catchment written to %s\n", path.c_str());
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  const auto scenario = cli::make_scenario(args);
  const auto& base = pick_deployment(scenario, args);
  const std::string site_code = args.get("site", "MIA");
  const auto site = base.site_by_code(site_code);
  if (!site) {
    std::fprintf(stderr, "error: deployment has no site '%s'\n",
                 site_code.c_str());
    return usage();
  }
  const int max_prepend =
      args.get_count("max-prepend", 3, anycast::kMaxPrepend);
  std::printf("sweeping %s prepend 0..%d (incremental delta routing)\n",
              site_code.c_str(), max_prepend);

  // One engine session for the whole sweep; consecutive configurations
  // differ in one site, so each step touches only the affected-AS set
  // (delta_routing_test proves the tables equal full recomputation).
  auto session = scenario.delta_session(base);
  util::Table table{{"prepend", "recomputed ASes", site_code + " share",
                     "largest share"},
                    {util::Align::kRight}};
  for (int n = 0; n <= max_prepend; ++n) {
    const auto result =
        session.apply(anycast::ConfigDelta::set_prepend(*site, n));
    const std::string recomputed =
        util::with_commas(result.recomputed_ases) + " / " +
        util::with_commas(scenario.topo().as_count());
    core::RoundSpec spec;
    spec.probe.measurement_id = static_cast<std::uint32_t>(9100 + n);
    apply_retry_args(spec.probe, args);
    spec.round = static_cast<std::uint32_t>(n);
    spec.threads = probe_threads(args);
    const auto round = scenario.engine().run(*result.table, spec);
    const auto counts = round.map.per_site_counts(base.sites.size());
    std::size_t largest = 0;
    for (std::size_t s = 1; s < counts.size(); ++s)
      if (counts[s] > counts[largest]) largest = s;
    table.add_row(
        {"+" + std::to_string(n), recomputed,
         util::percent(round.map.fraction_to(*site)),
         base.sites[largest].code + " " +
             util::percent(round.map.fraction_to(
                 static_cast<anycast::SiteId>(largest)))});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_campaign(const Args& args) {
  // A SIGINT mid-campaign must not lose the final journal frame or the
  // metrics flush: the handler only sets a flag, the campaign finishes
  // the round (and append) in flight, and we exit with a distinct code.
  // Installed before the (slow) scenario build so an early ^C is caught.
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const auto scenario = cli::make_scenario(args);
  const auto& deployment = pick_deployment(scenario, args);
  const auto rounds = args.get_count<std::uint32_t>("rounds", 16);
  const double interval = args.get_double("interval-min", 15.0);
  const auto routes_ptr = scenario.route(deployment);
  const auto& routes = *routes_ptr;
  core::ProbeConfig probe;
  probe.measurement_id = 100;
  apply_retry_args(probe, args);
  const auto injector = make_injector(args);
  ProgressObserver progress;
  core::Campaign campaign{scenario.engine(), routes};
  campaign.probe(probe)
      .rounds(rounds)
      .interval(util::SimTime::from_minutes(interval))
      .threads(probe_threads(args))
      .concurrency(args.get_count("concurrency", 1u))
      .observe(progress)
      .cancel(&g_interrupted)
      .faults(injector ? &*injector : nullptr);
  if (args.has("journal")) {
    campaign.journal(args.get("journal", ""),
                     anycast::fingerprint(deployment));
    campaign.resume(args.has("resume"));
  }
  const auto outcome = campaign.run_reported();
  if (const int refused = cli::journal_refusal(outcome.journal)) return refused;
  switch (outcome.journal) {
    case core::JournalStatus::kIoError:
      // The journal is an output artifact like --out: losing frames must
      // surface as the write-failure exit code, never a generic error
      // (and never silently — see VP_JOURNAL_FAIL_AT in journal_test).
      std::fprintf(stderr, "error: cannot write journal\n");
      return kExitWriteFailed;
    case core::JournalStatus::kResumed:
      std::printf("resumed: %u rounds from journal, %u re-run",
                  outcome.rounds_loaded, outcome.rounds_executed);
      if (outcome.truncated_bytes > 0) {
        std::printf(" (%llu torn bytes truncated)",
                    static_cast<unsigned long long>(outcome.truncated_bytes));
      }
      std::printf("\n");
      break;
    default:
      break;
  }
  if (outcome.interrupted) {
    // Skipped rounds left empty results, so the stability analysis and
    // the --out CSV (which must cover every round) would be wrong.
    // Everything durable — the in-flight round's journal append — already
    // happened; report the prefix and leave with a distinct code.
    std::uint32_t completed = 0;
    for (const core::RoundResult& result : outcome.results)
      if (result.map.blocks_probed > 0) ++completed;
    std::printf("interrupted: %u of %u rounds completed (%u from journal); "
                "rerun with --resume to finish\n",
                completed, rounds, outcome.rounds_loaded);
    return kExitInterrupted;
  }
  const auto& results = outcome.results;
  analysis::StabilityAccumulator accumulator{scenario.topo()};
  sim::FaultStats campaign_faults;
  for (const core::RoundResult& result : results) {
    accumulator.add_round(result.map);
    campaign_faults += result.faults;
  }
  print_fault_summary(campaign_faults);
  const auto report = accumulator.finish();
  std::printf("campaign: %u rounds, %.0f min apart\n", rounds, interval);
  std::printf("medians per round: stable %s, to-NR %s, from-NR %s, "
              "flipped %s\n",
              util::si_count(report.median_stable()).c_str(),
              util::si_count(report.median_to_nr()).c_str(),
              util::si_count(report.median_from_nr()).c_str(),
              util::si_count(report.median_flipped()).c_str());
  util::Table table{{"AS", "name", "flips"},
                    {util::Align::kRight, util::Align::kLeft}};
  for (std::size_t i = 0; i < report.by_as.size() && i < 5; ++i) {
    table.add_row({std::to_string(report.by_as[i].asn), report.by_as[i].name,
                   util::with_commas(report.by_as[i].flips)});
  }
  std::printf("top flipping ASes:\n%s", table.to_string().c_str());
  if (args.has("out")) {
    // All rounds in one file: the crash harness byte-compares this
    // against an uninterrupted run, so it must cover every round, in
    // order, and be written atomically.
    std::string all;
    for (std::uint32_t r = 0; r < rounds; ++r) {
      all += "# round " + std::to_string(r) + '\n';
      all += core::catchment_csv(results[r], deployment);
    }
    const std::string path = args.get("out", "campaign.csv");
    if (!util::atomic_write_file(path, all)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return kExitWriteFailed;
    }
    std::printf("campaign catchments written to %s\n", path.c_str());
  }
  return outcome.journal == core::JournalStatus::kResumed ? kExitResumed : 0;
}

int cmd_atlas(const Args& args) {
  const auto scenario = cli::make_scenario(args);
  const auto& deployment = pick_deployment(scenario, args);
  const auto routes_ptr = scenario.route(deployment);
  const auto& routes = *routes_ptr;
  const auto campaign =
      scenario.atlas().measure(routes, scenario.internet().flips(), 0);
  std::printf("%u VPs considered, %u responded\n", campaign.considered,
              campaign.responding);
  util::Table table{{"site", "VPs", "share"}, {util::Align::kLeft}};
  const auto counts = campaign.per_site_counts(deployment.sites.size());
  for (std::size_t s = 0; s < counts.size(); ++s) {
    table.add_row({deployment.sites[s].code, util::with_commas(counts[s]),
                   util::percent(campaign.fraction_to(
                       static_cast<anycast::SiteId>(s)))});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_predict(const Args& args) {
  const auto scenario = cli::make_scenario(args);
  const auto& deployment = pick_deployment(scenario, args);
  core::RoundResult round;
  if (args.has("catchment")) {
    auto loaded = core::load_catchment(args.get("catchment", ""), deployment);
    if (!loaded) {
      std::fprintf(stderr, "error: cannot read catchment CSV\n");
      return 1;
    }
    round = std::move(*loaded);
    std::printf("using imported catchment (%s blocks)\n",
                util::with_commas(round.map.mapped_blocks()).c_str());
  } else {
    round = run_scan(scenario, deployment, 0, args);
  }
  const auto load = scenario.broot_load(load_date_seed(args));
  const auto split = analysis::predict_load(load, round.map,
                                            deployment.sites.size());
  util::Table table{{"site", "q/day", "share"}, {util::Align::kLeft}};
  for (std::size_t s = 0; s < deployment.sites.size(); ++s) {
    table.add_row({deployment.sites[s].code,
                   util::si_count(split.site_queries[s]),
                   util::percent(split.fraction_to(
                       static_cast<anycast::SiteId>(s)))});
  }
  table.add_row({"(unmapped)", util::si_count(split.unknown_queries), "-"});
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_recommend(const Args& args) {
  const auto scenario = cli::make_scenario(args);
  const auto& deployment = pick_deployment(scenario, args);
  const auto round = run_scan(scenario, deployment, 0, args);
  const auto load = scenario.broot_load(load_date_seed(args));
  const auto report =
      analysis::analyze_latency(scenario.topo(), round, load, deployment);
  std::printf("current load-weighted mean RTT: %.1f ms\n",
              report.load_weighted_mean_ms);
  const auto candidates = analysis::recommend_sites(
      scenario.topo(), round, load, deployment,
      args.get_count<std::size_t>("candidates", 5));
  util::Table table{{"#", "location", "blocks won", "mean saving"},
                    {util::Align::kRight, util::Align::kLeft}};
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    table.add_row({std::to_string(i + 1), candidates[i].center_name,
                   util::with_commas(candidates[i].blocks_won),
                   util::fixed(candidates[i].mean_rtt_saving_ms, 1) + " ms"});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_export_load(const Args& args) {
  const auto scenario = cli::make_scenario(args);
  const auto load = scenario.broot_load(load_date_seed(args));
  const std::string path = args.get("out", "load.csv");
  if (!core::save_load_csv(path, load)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return kExitWriteFailed;
  }
  std::printf("wrote %zu querying blocks (%s q/day) to %s\n",
              load.blocks().size(),
              util::si_count(load.total_daily_queries()).c_str(),
              path.c_str());
  return 0;
}

int cmd_gen(const Args& args) {
  namespace chrono = std::chrono;
  topology::Topology topo;
  double gen_seconds = 0.0;
  if (args.has("load")) {
    const std::string path = args.get("load", "");
    std::string error;
    const auto t0 = chrono::steady_clock::now();
    if (!topology::load_topology(path, topo, error)) {
      std::fprintf(stderr, "error: cannot load %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    gen_seconds = chrono::duration<double>(chrono::steady_clock::now() - t0)
                      .count();
    std::printf("loaded %s (%.2fs)\n", path.c_str(), gen_seconds);
  } else {
    topology::ScaleConfig gen;
    gen.seed = static_cast<std::uint64_t>(args.get_long("gen-seed", 42));
    gen.as_count = args.get_count<std::uint32_t>("gen-ases", 10'000);
    gen.target_blocks = args.get_count(
        "gen-blocks", static_cast<std::uint32_t>(13L * gen.as_count));
    gen.transit_count = args.get_count<std::uint32_t>("gen-transits", 16);
    gen.shard_size = args.get_count("gen-shard", gen.shard_size);
    gen.multihoming_mean = args.get_double("multihoming", 0.35);
    gen.peering_density = args.get_double("peering", 0.15);
    gen.threads = args.get_count("threads", 0u);
    std::printf("generating %s ASes / %s target blocks (seed %llu)...\n",
                util::with_commas(gen.as_count).c_str(),
                util::with_commas(gen.target_blocks).c_str(),
                static_cast<unsigned long long>(gen.seed));
    const auto t0 = chrono::steady_clock::now();
    topo = topology::generate_scale_topology(gen);
    gen_seconds = chrono::duration<double>(chrono::steady_clock::now() - t0)
                      .count();
  }

  std::size_t tier_counts[3] = {0, 0, 0};
  std::size_t link_records = 0;
  for (topology::AsId v = 0; v < topo.as_count(); ++v) {
    const topology::AsNode& node = topo.as_at(v);
    tier_counts[static_cast<std::size_t>(node.tier)]++;
    link_records += node.links.size();
  }
  util::Table table{{"", "count"}, {util::Align::kLeft}};
  table.add_row({"transit ASes", util::with_commas(tier_counts[0])});
  table.add_row({"regional ASes", util::with_commas(tier_counts[1])});
  table.add_row({"stub ASes", util::with_commas(tier_counts[2])});
  table.add_row({"links", util::with_commas(link_records / 2)});
  table.add_row({"announced prefixes",
                 util::with_commas(topo.announced_prefixes().size())});
  table.add_row({"/24 blocks", util::with_commas(topo.block_count())});
  table.add_row({"geolocated blocks", util::with_commas(topo.geodb().size())});
  std::printf("%s", table.to_string().c_str());
  if (gen_seconds > 0.0) {
    std::printf("built in %.2fs (%s blocks/s)\n", gen_seconds,
                util::si_count(static_cast<double>(topo.block_count()) /
                               gen_seconds)
                    .c_str());
  }
  std::printf("memory: %s bytes (%.1f bytes/block)\n",
              util::with_commas(topo.memory_bytes()).c_str(),
              static_cast<double>(topo.memory_bytes()) /
                  static_cast<double>(std::max<std::size_t>(
                      1, topo.block_count())));
  std::printf("structural digest: %016llx\n",
              static_cast<unsigned long long>(
                  topology::structural_digest(topo)));

  if (args.has("out")) {
    const std::string path = args.get("out", "topology.vpt");
    if (!topology::save_topology(topo, path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return kExitWriteFailed;
    }
    std::printf("topology written to %s\n", path.c_str());
  }

  if (args.has("probe")) {
    const auto seed =
        static_cast<std::uint64_t>(args.get_long("gen-seed", 42));
    const auto deployment = anycast::make_generated(
        topo, args.get_count<std::size_t>("sites", 4), seed);
    if (deployment.sites.empty()) {
      std::fprintf(stderr, "error: topology has no transit core to host "
                           "anycast sites\n");
      return 1;
    }
    std::printf("probing via %zu generated sites...\n",
                deployment.sites.size());
    sim::InternetConfig internet_config;
    internet_config.responsiveness.seed = util::hash_combine(seed, 1);
    internet_config.flips.seed = util::hash_combine(seed, 2);
    const sim::InternetSim internet{topo, internet_config};
    hitlist::HitlistConfig hitlist_config;
    hitlist_config.seed = util::hash_combine(seed, 3);
    const auto hitlist = hitlist::Hitlist::build(
        topo, internet.responsiveness(), hitlist_config, probe_threads(args));
    const core::ProbeEngine engine{internet, hitlist};
    const auto routes = bgp::RoutingEngine{topo, deployment}.full();
    core::RoundSpec spec;
    spec.probe.measurement_id = 9500;
    apply_retry_args(spec.probe, args);
    spec.threads = probe_threads(args);
    ProgressObserver progress;
    const auto round = engine.run(*routes, spec, &progress);
    print_catchment_summary(deployment, round);
  }
  return 0;
}

std::string playbook_csv(const agility::Playbook& playbook,
                         const anycast::Deployment& deployment) {
  std::ostringstream out;
  out << "attack,kind,seed,magnitude,target,rank,response,absorbed_frac,"
         "broken_frac,overloaded_sites,shifted_blocks,offered_qday,"
         "configs_evaluated\n";
  for (const agility::PlaybookEntry& entry : playbook.entries) {
    const std::string target =
        entry.target >= 0 &&
                static_cast<std::size_t>(entry.target) <
                    deployment.sites.size()
            ? deployment.sites[static_cast<std::size_t>(entry.target)].code
            : "-";
    const auto row = [&](std::size_t rank, const std::string& label,
                         const agility::Score& score) {
      out << entry.attack_label << ',' << agility::to_string(entry.attack.kind)
          << ',' << entry.attack.seed << ','
          << util::fixed(entry.attack.magnitude, 2) << ',' << target << ','
          << rank << ',' << label << ','
          << util::fixed(score.absorbed_fraction(entry.offered_milliq), 6)
          << ','
          << util::fixed(score.broken_fraction(entry.offered_milliq), 6)
          << ',' << score.overloaded_sites << ',' << score.shifted_blocks
          << ',' << entry.offered_milliq / 1000 << ','
          << entry.configs_evaluated << '\n';
    };
    row(0, "no action", entry.no_action);
    for (std::size_t r = 0; r < entry.responses.size(); ++r)
      row(r + 1, entry.responses[r].candidate.label,
          entry.responses[r].score);
  }
  return out.str();
}

std::string playbook_json(const agility::Playbook& playbook,
                          const anycast::Deployment& deployment) {
  std::ostringstream out;
  const auto score_json = [&](const agility::Score& score,
                              std::uint64_t offered) {
    std::ostringstream s;
    s << "{\"absorbed_frac\": "
      << util::fixed(score.absorbed_fraction(offered), 6)
      << ", \"broken_frac\": " << util::fixed(score.broken_fraction(offered), 6)
      << ", \"overloaded_sites\": " << score.overloaded_sites
      << ", \"shifted_blocks\": " << score.shifted_blocks << "}";
    return s.str();
  };
  out << "{\n  \"deployment\": \"" << deployment.name << "\",\n"
      << "  \"entries\": [\n";
  for (std::size_t e = 0; e < playbook.entries.size(); ++e) {
    const agility::PlaybookEntry& entry = playbook.entries[e];
    const std::string target =
        entry.target >= 0 &&
                static_cast<std::size_t>(entry.target) <
                    deployment.sites.size()
            ? deployment.sites[static_cast<std::size_t>(entry.target)].code
            : "";
    out << "    {\"attack\": \"" << entry.attack_label << "\", \"kind\": \""
        << agility::to_string(entry.attack.kind) << "\", \"seed\": "
        << entry.attack.seed << ", \"target\": \"" << target
        << "\", \"offered_qday\": " << entry.offered_milliq / 1000
        << ", \"configs_evaluated\": " << entry.configs_evaluated
        << ",\n     \"no_action\": "
        << score_json(entry.no_action, entry.offered_milliq)
        << ",\n     \"responses\": [\n";
    for (std::size_t r = 0; r < entry.responses.size(); ++r) {
      out << "       {\"rank\": " << r + 1 << ", \"response\": \""
          << entry.responses[r].candidate.label << "\", \"score\": "
          << score_json(entry.responses[r].score, entry.offered_milliq)
          << '}' << (r + 1 < entry.responses.size() ? "," : "") << '\n';
    }
    out << "     ]}" << (e + 1 < playbook.entries.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  return out.str();
}

int cmd_playbook(const Args& args) {
  const auto scenario = cli::make_scenario(args);
  const auto& deployment = pick_deployment(scenario, args);

  agility::PlaybookConfig config;
  config.max_prepend = args.get_count("max-prepend", 3, anycast::kMaxPrepend);
  config.allow_withdraw = !args.has("no-withdraw");
  config.strategy = args.has("exhaustive")
                        ? agility::SearchStrategy::kExhaustive
                        : agility::SearchStrategy::kStaged;
  config.threads = args.get_count("threads", 1u);
  config.capacity_headroom = args.get_double("headroom", 1.6);
  config.top_k = args.get_count<std::size_t>("top", 5);

  anycast::SiteId target = anycast::kUnknownSite;
  if (args.has("target")) {
    const std::string code = args.get("target", "");
    const auto site = deployment.site_by_code(code);
    if (!site) {
      std::fprintf(stderr, "error: deployment has no site '%s'\n",
                   code.c_str());
      return usage();
    }
    target = *site;
  }

  std::vector<agility::AttackSpec> attacks;
  {
    const std::string list =
        args.get("attack", "polarized,flash,spoofed,volumetric");
    std::istringstream stream{list};
    std::string name;
    while (std::getline(stream, name, ',')) {
      const auto kind = agility::attack_kind_from_string(name);
      if (!kind) {
        std::fprintf(stderr, "error: unknown attack kind '%s'\n",
                     name.c_str());
        return usage();
      }
      agility::AttackSpec spec;
      spec.kind = *kind;
      spec.seed = static_cast<std::uint64_t>(args.get_long("attack-seed", 1));
      spec.magnitude = args.get_double("magnitude", 4.0);
      spec.target_site = target;
      attacks.push_back(spec);
    }
    if (attacks.empty()) return usage();
  }

  const agility::PlaybookOptimizer optimizer{scenario, deployment, config,
                                             load_date_seed(args)};
  std::printf("searching %s responses (%s, max prepend %d%s)\n",
              deployment.name.c_str(),
              config.strategy == agility::SearchStrategy::kExhaustive
                  ? "exhaustive"
                  : "staged",
              config.max_prepend,
              config.allow_withdraw ? ", withdrawal allowed" : "");
  const agility::Playbook playbook = optimizer.build(attacks);

  for (const agility::PlaybookEntry& entry : playbook.entries) {
    std::printf("\n%s: offered %s q/day (attack %s), %zu configs in %s ms\n",
                entry.attack_label.c_str(),
                util::si_count(static_cast<double>(entry.offered_milliq) /
                               1000.0)
                    .c_str(),
                util::si_count(static_cast<double>(entry.attack_milliq) /
                               1000.0)
                    .c_str(),
                entry.configs_evaluated,
                util::fixed(entry.search_ms, 1).c_str());
    util::Table table{{"rank", "response", "absorbed", "broken",
                       "overloaded", "shifted blocks"},
                      {util::Align::kRight, util::Align::kLeft}};
    const auto row = [&](const std::string& rank, const std::string& label,
                         const agility::Score& score) {
      table.add_row(
          {rank, label,
           util::percent(score.absorbed_fraction(entry.offered_milliq)),
           util::percent(score.broken_fraction(entry.offered_milliq)),
           std::to_string(score.overloaded_sites),
           util::with_commas(score.shifted_blocks)});
    };
    row("-", "no action", entry.no_action);
    for (std::size_t r = 0; r < entry.responses.size(); ++r)
      row(std::to_string(r + 1), entry.responses[r].candidate.label,
          entry.responses[r].score);
    std::printf("%s", table.to_string().c_str());
  }

  if (args.has("out")) {
    const std::string path = args.get("out", "playbook.csv");
    const bool json = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".json") == 0;
    const std::string contents = json ? playbook_json(playbook, deployment)
                                      : playbook_csv(playbook, deployment);
    if (!util::atomic_write_file(path, contents)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return kExitWriteFailed;
    }
    std::printf("\nplaybook written to %s\n", path.c_str());
  }
  return 0;
}

int dispatch(const Args& args) {
  if (args.command == "scan") return cmd_scan(args);
  if (args.command == "sweep") return cmd_sweep(args);
  if (args.command == "campaign") return cmd_campaign(args);
  if (args.command == "atlas") return cmd_atlas(args);
  if (args.command == "predict") return cmd_predict(args);
  if (args.command == "recommend") return cmd_recommend(args);
  if (args.command == "export-load") return cmd_export_load(args);
  if (args.command == "gen") return cmd_gen(args);
  if (args.command == "playbook") return cmd_playbook(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) try {
  const auto args =
      cli::parse_args(argc, argv, /*has_command=*/true,
                      {"resume", "no-metrics", "probe", "no-withdraw",
                       "exhaustive"});
  if (!args) return usage();
  if (args->has("no-metrics")) obs::metrics().set_enabled(false);
  return cli::finish_metrics(*args, dispatch(*args));
} catch (const cli::BadNumber& bad) {
  return bad.report();
}
