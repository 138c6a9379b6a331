// Ablation: retries on the one-probe hitlist (§3.1: "We could improve the
// response rate by probing multiple targets in each block (as Trinocular
// does), or retrying immediately. Exploration of these options is future
// work.") — the traffic cost of one probe per block, and retry/backoff
// sweeps against an injected-loss plan (sim::FaultInjector). Multiple
// targets per block were measured once and dropped (EXPERIMENTS.md).
#include <vector>

#include "bench/harness.hpp"
#include "core/probe_engine.hpp"
#include "sim/fault_injector.hpp"

using namespace vp;

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env(0.5)};
  bench::banner("Ablation", "retries and backoff on the one-probe hitlist",
                scenario);

  const auto routes_ptr = scenario.route(scenario.broot(), analysis::kMayEpoch);
  const auto& routes = *routes_ptr;
  core::ProbeConfig clean_probe;
  clean_probe.measurement_id = 9000;
  const auto clean_map = scenario.engine().run(routes, {clean_probe, 0}).map;
  const std::uint64_t base_probes = clean_map.probes_sent;
  const double clean_coverage =
      static_cast<double>(clean_map.mapped_blocks()) /
      static_cast<double>(clean_map.blocks_probed);

  // Traffic cost accounting (paper §3.1: one probe per /24 cuts traffic
  // to 0.4% of a complete IPv4 scan; a whole measurement is ~128 MB).
  std::vector<std::uint8_t> probe;
  net::build_echo_request_into(probe, net::Ipv4Address{192, 0, 2, 1},
                               net::Ipv4Address{1, 2, 3, 4}, 1, 1,
                               net::ProbePayload{});
  const std::size_t probe_bytes = probe.size();
  const double hitlist_mb =
      static_cast<double>(base_probes) * probe_bytes / 1e6;
  const double full_scan_mb =
      static_cast<double>(base_probes) * 256.0 * probe_bytes / 1e6;
  std::printf("traffic cost: %.1f MB per hitlist measurement (%s bytes x "
              "%s probes); a full per-address scan would be %.0f MB\n\n",
              hitlist_mb, util::with_commas(probe_bytes).c_str(),
              util::with_commas(base_probes).c_str(), full_scan_mb);

  // --- retry/backoff sweep under injected loss ---------------------------
  // A lossy-but-plausible Internet: 20% forward loss, 10% return loss,
  // plus mild ICMP rate-limiting. Retries are the paper's deferred
  // future work; the sweep shows what they buy and what they cost.
  sim::FaultPlan plan;
  plan.seed = 2017;
  plan.probe_loss_rate = 0.20;
  plan.reply_loss_rate = 0.10;
  plan.rate_limit_site_rate = 0.5;
  plan.rate_limit_drop_rate = 0.15;
  const sim::FaultInjector injector{plan};

  const auto faulty_run = [&](int retries, double backoff_ms) {
    core::RoundSpec spec;
    spec.probe.measurement_id = static_cast<std::uint32_t>(9500 + retries * 10);
    spec.probe.max_retries = retries;
    spec.probe.retry_backoff_ms = backoff_ms;
    spec.faults = &injector;
    return scenario.engine().run(routes, spec);
  };

  util::Table retry_table{{"retries", "probes", "coverage", "recovered",
                           "marginal blocks per 1k probes"}};
  std::vector<double> retry_coverages;
  std::uint64_t rprev_probes = 0, rprev_mapped = 0;
  for (const int retries : {0, 1, 2, 4}) {
    const auto result = faulty_run(retries, 250.0);
    const auto& map = result.map;
    const double coverage = static_cast<double>(map.mapped_blocks()) /
                            static_cast<double>(map.blocks_probed);
    retry_coverages.push_back(coverage);
    std::string marginal = "-";
    if (rprev_probes != 0) {
      marginal = util::fixed(
          1000.0 * static_cast<double>(map.mapped_blocks() - rprev_mapped) /
              static_cast<double>(map.probes_sent - rprev_probes),
          1);
    }
    retry_table.add_row({std::to_string(retries),
                         util::with_commas(map.probes_sent),
                         util::percent(coverage),
                         util::with_commas(result.faults.recovered),
                         marginal});
    rprev_probes = map.probes_sent;
    rprev_mapped = map.mapped_blocks();
  }
  std::printf("retries under a lossy plan (20%% fwd / 10%% rtn loss, "
              "rate-limiting):\n%s\n",
              retry_table.to_string().c_str());

  // Backoff sweep: spacing changes reply timing, not reachability, so
  // coverage should barely move while the probing tail stretches.
  util::Table backoff_table{{"backoff ms", "coverage", "late replies"}};
  std::vector<double> backoff_coverages;
  for (const double backoff_ms : {50.0, 250.0, 2'000.0}) {
    const auto result = faulty_run(2, backoff_ms);
    backoff_coverages.push_back(
        static_cast<double>(result.map.mapped_blocks()) /
        static_cast<double>(result.map.blocks_probed));
    backoff_table.add_row({util::fixed(backoff_ms, 0),
                           util::percent(backoff_coverages.back()),
                           util::with_commas(result.map.cleaning.late)});
  }
  std::printf("backoff sweep (2 retries, same plan):\n%s\n",
              backoff_table.to_string().c_str());

  std::printf("shape checks:\n");
  bench::shape("hitlist traffic is a sliver of a full scan", "0.4%",
               util::percent(hitlist_mb / full_scan_mb),
               std::abs(hitlist_mb / full_scan_mb - 1.0 / 256.0) < 1e-9);
  bench::shape("injected loss dents coverage", "below clean",
               util::percent(retry_coverages.front()) + " vs " +
                   util::percent(clean_coverage),
               retry_coverages.front() < clean_coverage - 0.02);
  bench::shape("retries claw it back monotonically", "rising to ~clean",
               util::percent(retry_coverages.front()) + " -> " +
                   util::percent(retry_coverages.back()),
               retry_coverages.back() > clean_coverage - 0.01 &&
                   retry_coverages[1] >= retry_coverages[0] &&
                   retry_coverages[2] >= retry_coverages[1] &&
                   retry_coverages[3] >= retry_coverages[2]);
  bench::shape("backoff spacing is coverage-neutral", "flat",
               util::percent(backoff_coverages.front()) + " ~ " +
                   util::percent(backoff_coverages.back()),
               std::abs(backoff_coverages.front() -
                        backoff_coverages.back()) < 0.01);
  return 0;
}
