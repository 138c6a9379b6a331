// Journaling overhead: per-round cost of the crash-safe campaign journal
// (core/journal.hpp) — serialize + CRC + append + fsync per completed
// round — against the bare campaign loop. Target: the journaling code
// path costs < 5% of round wall time, since the paper's production shape
// (96 rounds, 24 hours, §4.2) journals once per ~15 simulated minutes
// and durability must not meaningfully tax the probing path.
//
// Two journal placements separate what the code costs from what the
// disk costs: tmpfs (/dev/shm) isolates the journaling path itself,
// while a disk-backed journal adds the fsync + writeback price of real
// durability — on a single-CPU box the deferred writeback competes with
// the next round's compute, which is a property of the disk, not the
// journal. The < 5% shape check applies to the code path.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/harness.hpp"
#include "core/campaign.hpp"
#include "util/format.hpp"

using namespace vp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

long file_size(const char* path) {
  struct stat st{};
  return ::stat(path, &st) == 0 ? static_cast<long>(st.st_size) : 0;
}

}  // namespace

int main() {
  analysis::Scenario scenario{analysis::ScenarioConfig::from_env(0.4)};
  bench::banner("Journal", "crash-safe journaling overhead per round",
                scenario);

  const auto routes_ptr = scenario.route(scenario.broot(), analysis::kMayEpoch);
  const auto& routes = *routes_ptr;
  const std::uint64_t deployment = anycast::fingerprint(scenario.broot());
  const char* disk_path = "/tmp/vp_bench_journal.bin";
  struct stat shm{};
  const bool have_shm = ::stat("/dev/shm", &shm) == 0;
  const char* shm_path =
      have_shm ? "/dev/shm/vp_bench_journal.bin" : disk_path;
  constexpr std::uint32_t kRounds = 8;
  core::ProbeConfig probe;
  probe.measurement_id = 7000;
  const auto make_campaign = [&] {
    core::Campaign campaign{scenario.engine(), routes};
    campaign.probe(probe).rounds(kRounds).interval(
        util::SimTime::from_minutes(15));
    return campaign;
  };

  // Warm up, then time the pieces directly. The journal's cost is a few
  // ms per round — far below a shared box's run-to-run drift — so
  // subtracting whole-campaign wall clocks would measure the machine,
  // not the journal. Instead: time bare rounds, then time appending
  // those rounds' actual results through the real journal, and take the
  // ratio. Best-of-N each.
  const auto timed = [](const auto& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return seconds_since(start);
  };
  make_campaign().run();
  double bare = 1e30;
  std::vector<core::RoundResult> results;
  for (int rep = 0; rep < 3; ++rep)
    bare = std::min(bare, timed([&] { results = make_campaign().run(); }));
  const double per_round = bare / kRounds;

  const core::JournalManifest manifest{
      make_campaign().journal(disk_path, deployment).fingerprint(), kRounds};
  const auto append_all = [&](const char* path) {
    core::CampaignJournal journal;
    journal.open(path, manifest, false);
    for (std::uint32_t r = 0; r < kRounds; ++r)
      journal.append_round(r, results[r]);
    journal.close();
  };
  double code = 1e30, disk = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    if (have_shm) code = std::min(code, timed([&] { append_all(shm_path); }));
    disk = std::min(disk, timed([&] { append_all(disk_path); }));
  }
  if (!have_shm) code = disk;
  const long journal_bytes = file_size(disk_path);
  if (have_shm) std::remove(shm_path);

  // Integration numbers: a real journaled campaign and its resume.
  const auto journaled =
      make_campaign().journal(disk_path, deployment).run_reported();
  core::CampaignReport resumed;
  double resume = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    resume = std::min(resume, timed([&] {
      resumed = make_campaign()
                    .journal(disk_path, deployment)
                    .resume()
                    .run_reported();
    }));
  }
  std::remove(disk_path);

  const auto row = [&](const char* name, double per_append) {
    return std::vector<std::string>{name,
                                    util::fixed(per_append * 1e3, 2) + " ms",
                                    util::percent(per_append / per_round)};
  };
  util::Table table{{"cost", "per round", "of round time"},
                    {util::Align::kLeft}};
  table.add_row({"bare round (probe + collect + clean)",
                 util::fixed(per_round * 1e3, 2) + " ms", "-"});
  table.add_row(row(have_shm ? "journal append (tmpfs: code path)"
                             : "journal append (no tmpfs: disk)",
                    code / kRounds));
  table.add_row(row("journal append (disk: + fsync durability)",
                    disk / kRounds));
  table.add_row(row("resume, per journaled round skipped",
                    resume / kRounds));
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "journal size: %s bytes (%s per round); resume loaded %u rounds, "
      "re-ran %u\n",
      util::with_commas(static_cast<std::uint64_t>(journal_bytes)).c_str(),
      util::with_commas(static_cast<std::uint64_t>(journal_bytes) / kRounds)
          .c_str(),
      resumed.rounds_loaded, resumed.rounds_executed);

  const double overhead = (code / kRounds) / per_round;
  const double durable = (disk / kRounds) / per_round;
  bench::shape("journaling code path < 5% of round time", "< 5%",
               util::percent(overhead), overhead < 0.05);
  bench::shape("with disk durability (fsync per append)", "< 10%",
               util::percent(durable), durable < 0.10);
  return journaled.ok() && resumed.rounds_loaded == kRounds &&
                 overhead < 0.05
             ? 0
             : 1;
}
