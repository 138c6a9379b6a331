// Shared pieces of the end-to-end benchmark program: the seeded world every
// job runs on, the report the jobs fill, and the three jobs themselves.
//
// Every job drives public APIs only (analysis::Scenario, core::Campaign,
// service::Daemon + net::HttpServer, agility::PlaybookOptimizer) and times
// them from outside. Raw samples go into the Report; run.py turns them
// into medians, tails and the benchmark's result line.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agility/playbook.hpp"
#include "analysis/scenario.hpp"
#include "core/probe_engine.hpp"
#include "net/http_server.hpp"
#include "service/daemon.hpp"
#include "sim/fault_injector.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace vp;

/// One generated Internet: 100k ASes at scale 1.0 gives ~1.46M blocks.
inline constexpr std::uint32_t kGeneratedAses = 100'000;
/// The Internet is the same for every --seed: per-seed Internets move
/// /map's size by ~20% (address string lengths) and round work with it,
/// more than any regression bound could absorb. Everything the workloads
/// send into it derives from --seed.
inline constexpr std::uint64_t kInternetSeed = 42;
/// The documented default seed (the held-out seed is 1337).
inline constexpr std::uint64_t kDefaultSeed = 42;
/// Busy-thread budget of the whole process.
inline constexpr unsigned kThreads = 4;
/// Probe workers per measured round, campaign and daemon alike. Two, not
/// four: a round's probe phase waits for its slowest worker, and with one
/// worker per virtual CPU of a shared host every CPU the host takes away
/// stalls the round (within one run, warm round times ranged 18% with four
/// workers and 5% with two).
inline constexpr unsigned kProbeThreads = 2;

/// Stateless seed derivation (splitmix64 of seed ^ tag).
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag);

/// Raw measurements of one run, serialized as one JSON line at exit.
struct Report {
  std::map<std::string, std::vector<double>> samples;  ///< end-to-end
  std::map<std::string, std::vector<double>> layer;    ///< per-layer
  std::map<std::string, double> counters;
  std::map<std::string, bool> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& name, bool ok);
  std::string to_json() const;
};

/// The scenario and base routing every job shares.
struct World {
  std::uint64_t seed = 0;
  std::string out_dir;
  std::unique_ptr<analysis::Scenario> scenario;
  std::shared_ptr<const bgp::RoutingTable> routes;  ///< tangled, May epoch

  World(std::uint64_t seed, std::string out_dir);
  const anycast::Deployment& deployment() const { return scenario->tangled(); }
};

/// The seeded prepend configuration (1-3 sites, depth 1-3) /load asks
/// about. /load alternates between it and the base configuration, so every
/// request applies the same routing delta, one way or back; the traced run
/// replays those deltas.
std::string load_config(const World& world);
/// Parses a /load config string into the deployment it describes.
anycast::Deployment apply_config(const anycast::Deployment& base,
                                 const std::string& config);

/// `campaign`: core::Campaign rounds with a journal, audited against the
/// simulator's ground truth.
class CampaignJob {
 public:
  static constexpr std::uint32_t kRoundsPerCampaign = 6;

  explicit CampaignJob(const World& world);

  /// Runs whole campaigns for about `seconds` (at least `min_campaigns`).
  /// Round intervals go to samples[prefix + "round_s"], each round's CSV
  /// export time to samples[prefix + "map_ms"].
  void run(double seconds, int min_campaigns, Report& report,
           const std::string& prefix = "");

 private:
  void audit(const core::Campaign& campaign,
             const std::vector<core::RoundResult>& results, bool journal_ok,
             Report& report) const;

  const World& world_;
  core::ProbeEngine engine_;
  int campaigns_run_ = 0;
};

/// `serve`: service::Daemon measuring faulted rounds back to back behind
/// net::HttpServer, queried over loopback.
class ServeJob {
 public:
  /// Starts the daemon and the server and waits for the first published
  /// map. `rounds` = 0 measures until stop(); set-up repetitions that are
  /// thrown away pass 1 so their round loop ends by itself.
  ServeJob(const World& world, std::uint32_t rounds);
  ~ServeJob();
  ServeJob(const ServeJob&) = delete;  // the server and loop hold `this`
  ServeJob& operator=(const ServeJob&) = delete;

  /// Runs the client streams for `seconds`. Latencies and the daemon's
  /// round intervals go to samples[prefix + name].
  void run(double seconds, Report& report, const std::string& prefix = "");

  /// Stops the daemon and the server and records their failures.
  void stop(Report& report);

 private:
  /// What the /map + /load stream measured in one window.
  struct ControlOut {
    std::vector<double> map_ms;
    std::vector<double> load_ms;
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    std::size_t map_bytes = 0;
    /// A /map body and the snapshot it was rendered from, for the check.
    std::string map_body;
    std::shared_ptr<const service::ServedMap> map_snapshot;
  };

  net::HttpResponse handle(const net::HttpRequest& request);
  /// /block lookups at kBlockRate for `seconds`.
  void block_stream(double seconds, Report& report, const std::string& prefix);
  /// /map, /load, /map, ... back to back for `seconds`. Appends to `out`.
  void control_stream(double seconds, Report& report, ControlOut& out);
  /// Notes a snapshot the daemon published since the last call.
  void track_publishes(Report& report);

  const World& world_;
  sim::FaultInjector faults_;
  std::unique_ptr<service::Daemon> daemon_;
  net::HttpServer server_;
  std::thread loop_;
  bool stopped_ = false;
  std::vector<std::string> block_targets_;
  std::string load_config_;
  std::uint64_t loads_sent_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t request_failures_ = 0;
  bool map_checked_ = false;
  bool map_ok_ = false;
  /// Round and publish time of each snapshot published during the current
  /// window, in order (not the snapshots: holding them would add to the
  /// peak memory).
  std::vector<std::pair<std::uint32_t, Clock::time_point>> published_;
  std::uint32_t newest_ = 0;
};

/// The what-if job: agility::PlaybookOptimizer responses to seeded attacks,
/// re-scored by the reference scorer.
class WhatifJob {
 public:
  explicit WhatifJob(const World& world);

  /// Responds to `attacks` attacks, cycling the four kinds. Times go to
  /// samples["respond_ms"].
  void run(int attacks, Report& report);

  const agility::PlaybookOptimizer& optimizer() const { return optimizer_; }
  /// The i-th attack of the seeded sequence.
  agility::AttackSpec attack(std::uint64_t i) const;

 private:
  const World& world_;
  agility::PlaybookOptimizer optimizer_;
  dnsload::LoadModel base_load_;
  std::uint64_t next_attack_ = 0;
};

/// The traced run's per-layer pass: times each layer's public calls
/// directly, under spans named after the layer.
void run_layers(const World& world, const WhatifJob& whatif, Report& report);

/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
