// The `campaign` job: `vpctl campaign` at scale, audited block by block.
#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/dataset_io.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

/// Completion time and engine metrics of every round of one campaign.
/// on_metrics is the engine's last callback of a round; Campaign appends
/// the round to its journal right after, so the interval between two
/// completions covers one round plus one journal append.
class RoundClock : public core::RoundObserver {
 public:
  void on_metrics(const core::RoundSpec&,
                  const core::RoundMetrics& metrics) override {
    completions.push_back(now_s());
    probe_phase_ms.push_back(metrics.probe_phase_ms);
    wall_ms.push_back(metrics.wall_ms);
  }

  std::vector<double> completions;
  std::vector<double> probe_phase_ms;
  std::vector<double> wall_ms;
};

/// The simulator's "next /24" alias reply (sim/internet.cpp): an aliased
/// host in block B may answer from its address + 256. When that lands on
/// the probed address of block B+1, the reply is accepted for B+1 but
/// travels B's catchment. True when `entry`'s wrong site is explained so.
bool alias_artifact(std::span<const hitlist::Entry> entries,
                    const hitlist::Entry& entry, anycast::SiteId site,
                    const World& world, std::uint32_t round) {
  const net::Block24 prev{entry.block.index() - 1};
  for (const hitlist::Entry& p : entries) {
    if (p.block != prev) continue;
    return p.target.value() + 256 == entry.target.value() &&
           world.scenario->internet().ground_truth_site(*world.routes, prev,
                                                        round) == site;
  }
  return false;
}

}  // namespace

CampaignJob::CampaignJob(const World& world)
    : world_(world),
      engine_(world.scenario->internet(), world.scenario->hitlist()) {}

void CampaignJob::run(double seconds, int min_campaigns, Report& report,
                      const std::string& prefix) {
  const std::string journal = world_.out_dir + "/campaign.journal";
  const double end = now_s() + seconds;
  const bool tracing = Tracer::instance().enabled();
  double last = 0.0;
  for (int done = 0;; ++done) {
    // Another campaign starts only if at least half of one fits before
    // the deadline, so the window overshoots by half a campaign at most.
    const double start = now_s();
    if (done >= min_campaigns && start + last / 2 > end) break;
    core::ProbeConfig probe;
    probe.order_seed = derive(world_.seed, 0xc0de0000u + campaigns_run_++);
    RoundClock clock;
    core::Campaign campaign{engine_, *world_.routes};
    campaign.probe(probe)
        .rounds(kRoundsPerCampaign)
        .threads(kProbeThreads)
        .concurrency(1)
        .observe(clock)
        .journal(journal, anycast::fingerprint(world_.deployment()));
    core::CampaignReport result;
    {
      Span span{"campaign.run"};
      result = campaign.run_reported();
    }
    // The first round of a campaign runs arena-cold; intervals start at
    // its completion, so every interval is one warm round + one append.
    for (std::size_t i = 1; i < clock.completions.size(); ++i)
      report.samples[prefix + "round_s"].push_back(clock.completions[i] -
                                                   clock.completions[i - 1]);
    if (tracing) {
      for (std::size_t i = 1; i < clock.wall_ms.size(); ++i) {
        report.layer["core.probe_phase_ms"].push_back(clock.probe_phase_ms[i]);
        report.layer["core.tail_ms"].push_back(clock.wall_ms[i] -
                                               clock.probe_phase_ms[i]);
      }
    }
    // Each round's map exported as `vpctl campaign --out` writes it (the
    // same bytes /map serves), rendered in memory so that no disk is timed.
    for (const core::RoundResult& round : result.results) {
      const double t0 = now_s();
      std::ostringstream csv;
      {
        Span span{"campaign.export"};
        core::write_catchment_csv(csv, round, world_.deployment());
      }
      report.samples[prefix + "map_ms"].push_back((now_s() - t0) * 1e3);
    }
    const bool journal_ok = result.ok() &&
                            result.journal == core::JournalStatus::kFresh &&
                            !result.interrupted &&
                            result.rounds_executed == kRoundsPerCampaign;
    report.check("campaign.journal_appends", journal_ok);
    {
      Span span{"campaign.audit"};
      audit(campaign, result.results, journal_ok, report);
    }
    last = now_s() - start;
  }
  std::filesystem::remove(journal);
}

void CampaignJob::audit(const core::Campaign& campaign,
                        const std::vector<core::RoundResult>& results,
                        bool journal_ok, Report& report) const {
  const sim::InternetSim& internet = world_.scenario->internet();
  const auto entries = world_.scenario->hitlist().entries();
  report.check("campaign.all_rounds_returned",
               results.size() == kRoundsPerCampaign);

  // Rounds are audited in parallel (the simulator is const and pure).
  struct Audit {
    std::uint64_t mapped = 0, wrong = 0, alias = 0;
  };
  std::vector<Audit> audits(results.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t r; (r = next.fetch_add(1)) < results.size();) {
      const core::CatchmentMap& map = results[r].map;
      const std::uint32_t round =
          campaign.spec_for(static_cast<std::uint32_t>(r)).round;
      Audit& a = audits[r];
      for (const hitlist::Entry& entry : entries) {
        const anycast::SiteId site = map.site_of(entry.block);
        if (site == anycast::kUnknownSite) continue;
        ++a.mapped;
        if (site ==
            internet.ground_truth_site(*world_.routes, entry.block, round))
          continue;
        if (alias_artifact(entries, entry, site, world_, round))
          ++a.alias;
        else
          ++a.wrong;
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  const bool tracing = Tracer::instance().enabled();
  for (std::size_t r = 0; r < results.size(); ++r) {
    const core::CatchmentMap& map = results[r].map;
    const core::CleaningStats& c = map.cleaning;
    const Audit& a = audits[r];
    report.check("campaign.raw_is_kept_plus_dropped",
                 c.raw_replies == c.kept + c.dropped());
    report.check("campaign.kept_is_mapped", c.kept == map.mapped_blocks());
    // Every mapped block must be a probed hitlist block.
    report.check("campaign.mapped_blocks_were_probed",
                 a.mapped == map.mapped_blocks());
    report.attempted += map.mapped_blocks();
    report.failed += journal_ok ? a.wrong + (map.mapped_blocks() - a.mapped)
                                : map.mapped_blocks();
    report.counters["campaign.mapped_blocks"] += static_cast<double>(a.mapped);
    report.counters["campaign.alias_artifacts"] += static_cast<double>(a.alias);
    report.counters["campaign.wrong_blocks"] += static_cast<double>(a.wrong);

    if (tracing) {
      const auto count = [&](const char* name, std::uint64_t v) {
        report.layer[name].push_back(static_cast<double>(v));
      };
      count("core.replies_raw", c.raw_replies);
      count("core.dropped.duplicates", c.duplicates);
      count("core.dropped.unsolicited", c.unsolicited);
      count("core.dropped.late", c.late);
      count("core.dropped.wrong_id", c.wrong_id);
      report.layer["core.kept_ratio"].push_back(
          c.raw_replies ? static_cast<double>(c.kept) /
                              static_cast<double>(c.raw_replies)
                        : 0.0);
    }
  }
}

}  // namespace perfbench
