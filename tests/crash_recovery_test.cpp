// Kill-point crash harness: drives the real vpctl binary through a
// 6-round journaled campaign, crashing it at every journal write point
// (via the VP_JOURNAL_CRASH_AT hook in core/journal.cpp), then resumes
// and asserts the final catchment CSV is byte-identical to an
// uninterrupted run. A 6-round campaign has 7 write points (manifest +
// 6 round records); the hook's cut position cycles with k, so the sweep
// covers crash-before-write, torn mid-frame writes, and crash-after-
// durable-write at thread counts {1,4} and concurrency {1,2}.
//
// Also exercises the vpctl-level refusal exit codes: 4 for a journal
// written by a different config, 5 for a checksum failure, resumes a
// committed golden journal whose records list their blocks in hash-map
// order, as the encoder did before it wrote them in block order, and
// byte-compares a faulted, retrying campaign against a committed golden
// written by the sort-based cleaner.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace {

constexpr int kKilledExit = 86;      // VP_JOURNAL_CRASH_AT's _exit code
constexpr int kResumedExit = 3;      // vpctl: completed after a resume
constexpr int kMismatchExit = 4;     // vpctl: fingerprint mismatch
constexpr int kCorruptExit = 5;      // vpctl: corrupt journal

std::string test_dir() {
  static const std::string dir = [] {
    std::string d =
        "/tmp/vp_crash_recovery_" + std::to_string(static_cast<long>(getpid()));
    mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

/// Runs vpctl with the given arguments, optionally arming the kill-point
/// hook, with its output sent to `log`; returns the process exit code (-1
/// if it died to a signal).
int run_vpctl(const std::string& args, int crash_at = 0,
              const std::string& log = "/dev/null") {
  std::string cmd;
  if (crash_at > 0)
    cmd += "VP_JOURNAL_CRASH_AT=" + std::to_string(crash_at) + " ";
  cmd += std::string{VPCTL_PATH} + " " + args + " > " + log + " 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string campaign_args(unsigned threads, unsigned concurrency,
                          const std::string& journal,
                          const std::string& out) {
  return "campaign --scale 0.03 --rounds 6 --seed 5 --threads " +
         std::to_string(threads) + " --concurrency " +
         std::to_string(concurrency) + " --journal " + journal + " --out " +
         out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

/// The uninterrupted run's combined catchment CSV — computed once,
/// byte-compared against every recovered run.
const std::string& baseline() {
  static const std::string text = [] {
    const std::string csv = test_dir() + "/base.csv";
    EXPECT_EQ(run_vpctl(campaign_args(1, 1, test_dir() + "/base.journal",
                                      csv)),
              0);
    return read_file(csv);
  }();
  return text;
}

TEST(CrashRecovery, UninterruptedRunsAgreeAcrossThreadCounts) {
  ASSERT_FALSE(baseline().empty());
  const std::string csv = test_dir() + "/agree.csv";
  for (const auto& [threads, concurrency] :
       {std::pair{4u, 1u}, {1u, 2u}, {4u, 2u}}) {
    ASSERT_EQ(run_vpctl(campaign_args(
                  threads, concurrency, test_dir() + "/agree.journal", csv)),
              0);
    EXPECT_EQ(read_file(csv), baseline())
        << "threads " << threads << " concurrency " << concurrency;
    std::remove(csv.c_str());
    std::remove((test_dir() + "/agree.journal").c_str());
  }
}

TEST(CrashRecovery, KillAtEveryJournalWriteThenResumeIsBitIdentical) {
  ASSERT_FALSE(baseline().empty());
  for (const unsigned threads : {1u, 4u}) {
    for (const unsigned concurrency : {1u, 2u}) {
      for (int k = 1; k <= 7; ++k) {
        const std::string tag = test_dir() + "/kill_" +
                                std::to_string(threads) + "_" +
                                std::to_string(concurrency) + "_" +
                                std::to_string(k);
        const std::string journal = tag + ".journal";
        const std::string csv = tag + ".csv";
        const std::string args =
            campaign_args(threads, concurrency, journal, csv);
        ASSERT_EQ(run_vpctl(args, k), kKilledExit) << tag;
        // The kill must have preempted the final CSV.
        EXPECT_TRUE(read_file(csv).empty()) << tag;
        const int resumed = run_vpctl(args + " --resume");
        // k=1 dies before any manifest byte lands, so the resume finds
        // no usable journal and legitimately reports a fresh run.
        if (k == 1) {
          EXPECT_EQ(resumed, 0) << tag;
        } else {
          EXPECT_EQ(resumed, kResumedExit) << tag;
        }
        EXPECT_EQ(read_file(csv), baseline()) << tag;
        std::remove(journal.c_str());
        std::remove(csv.c_str());
      }
    }
  }
}

TEST(CrashRecovery, ResumeOfCompleteJournalSkipsAllRounds) {
  const std::string journal = test_dir() + "/complete.journal";
  const std::string csv = test_dir() + "/complete.csv";
  const std::string args = campaign_args(1, 1, journal, csv);
  ASSERT_EQ(run_vpctl(args), 0);
  EXPECT_EQ(run_vpctl(args + " --resume"), kResumedExit);
  EXPECT_EQ(read_file(csv), baseline());
  std::remove(journal.c_str());
  std::remove(csv.c_str());
}

TEST(CrashRecovery, BitFlippedJournalIsRefusedWithDistinctExitCode) {
  const std::string journal = test_dir() + "/corrupt.journal";
  const std::string csv = test_dir() + "/corrupt.csv";
  const std::string args = campaign_args(1, 1, journal, csv);
  ASSERT_EQ(run_vpctl(args), 0);
  std::string data = read_file(journal);
  ASSERT_GT(data.size(), 100u);
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x04);
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << data;
  EXPECT_EQ(run_vpctl(args + " --resume"), kCorruptExit);
  // Refusal happens before any round runs or any artifact is replaced.
  EXPECT_EQ(read_file(journal), data);
  std::remove(journal.c_str());
  std::remove(csv.c_str());
}

TEST(CrashRecovery, GoldenHashOrderedJournalResumesByteIdentically) {
  // golden/campaign_v1.{journal,csv} came from one uninterrupted run of
  // this command by the encoder that wrote each record's blocks in
  // hash-map order; regenerating them with today's encoder would drop
  // exactly what they pin. Every round resumes from the journal, and the
  // CSV it writes matches the one written back then.
  const std::string golden = VP_GOLDEN_DIR;
  const std::string journal = test_dir() + "/golden.journal";
  const std::string csv = test_dir() + "/golden.csv";
  const std::string log = test_dir() + "/golden.log";
  const std::string recorded = read_file(golden + "/campaign_v1.journal");
  ASSERT_FALSE(recorded.empty());
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << recorded;
  EXPECT_EQ(run_vpctl("campaign --scale 0.01 --rounds 2 --seed 5 "
                      "--threads 1 --journal " + journal +
                          " --resume --out " + csv,
                      0, log),
            kResumedExit);
  EXPECT_NE(read_file(log).find("resumed: 2 rounds from journal, 0 re-run"),
            std::string::npos)
      << read_file(log);
  EXPECT_EQ(read_file(csv), read_file(golden + "/campaign_v1.csv"));
  std::remove(journal.c_str());
  std::remove(csv.c_str());
  std::remove(log.c_str());
}

TEST(CrashRecovery, GoldenFaultedCampaignIsByteIdentical) {
  // golden/campaign_faulted_v1.csv was written by the engine that merged
  // every reply into one array and sorted it before cleaning; the
  // block-ordered walk and the per-block first-reply reduction must
  // reproduce it byte for byte under faults and retries, at any thread
  // count.
  const std::string golden = read_file(std::string{VP_GOLDEN_DIR} +
                                       "/campaign_faulted_v1.csv");
  ASSERT_FALSE(golden.empty());
  for (const unsigned threads : {1u, 3u, 8u}) {
    const std::string csv = test_dir() + "/faulted.csv";
    EXPECT_EQ(run_vpctl("campaign --scale 0.01 --rounds 3 --seed 5 "
                        "--fault-seed 3 --retries 2 --threads " +
                        std::to_string(threads) + " --out " + csv),
              0);
    EXPECT_EQ(read_file(csv), golden) << "threads=" << threads;
    std::remove(csv.c_str());
  }
}

TEST(CrashRecovery, DifferentConfigIsRefusedWithDistinctExitCode) {
  const std::string journal = test_dir() + "/mismatch.journal";
  const std::string csv = test_dir() + "/mismatch.csv";
  ASSERT_EQ(run_vpctl(campaign_args(1, 1, journal, csv)), 0);
  // Same journal, different interval / rounds / retry config: each must
  // refuse with the fingerprint-mismatch exit code.
  for (const char* change :
       {" --interval-min 20", " --rounds 5", " --retries 1"}) {
    EXPECT_EQ(run_vpctl(campaign_args(1, 1, journal, csv) + change +
                        " --resume"),
              kMismatchExit)
        << change;
  }
  std::remove(journal.c_str());
  std::remove(csv.c_str());
}

}  // namespace
