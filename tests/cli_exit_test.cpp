// Exit-code contract for vpctl's output artifacts: a command must never
// exit 0 after failing to write a file the user asked for. Writes go
// through util::atomic_file, so an unwritable path surfaces at flush
// time — this forks the real binary and checks the distinct write-failed
// exit code (6) for --out and --metrics-out, and that successful runs
// actually leave the artifact behind. A numeric option that is not a
// number exits 2 in both vpctl and vpd, and a journal record naming a
// site the deployment lacks exits 5.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/journal.hpp"
#include "util/byte_codec.hpp"

namespace {

constexpr int kResumedExit = 3;
constexpr int kWriteFailedExit = 6;
constexpr int kInterruptedExit = 7;

std::string test_dir() {
  static const std::string dir = [] {
    std::string d =
        "/tmp/vp_cli_exit_" + std::to_string(static_cast<long>(getpid()));
    mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

/// Runs vpctl with the given arguments, optionally with an environment
/// prefix (e.g. the journal fault hooks); returns the exit code.
int run_vpctl(const std::string& args, const std::string& env = "") {
  const std::string cmd =
      env + std::string{VPCTL_PATH} + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool file_exists(const std::string& path) {
  return std::ifstream{path}.good();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

// A path whose parent directory does not exist; atomic_write_file cannot
// even create its temp file there.
std::string unwritable(const std::string& leaf) {
  return test_dir() + "/no-such-dir/" + leaf;
}

const std::string kScan = "scan --scale 0.03 --seed 5";

/// Runs `binary` with `args`, discarding stdout; returns the exit code and
/// leaves stderr in `err`.
int run_capturing_stderr(const char* binary, const std::string& args,
                         std::string& err) {
  const std::string path = test_dir() + "/stderr.txt";
  const std::string cmd =
      std::string{binary} + " " + args + " > /dev/null 2> " + path;
  const int status = std::system(cmd.c_str());
  err = read_file(path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// A numeric option must be one whole number: "two" is not 0 retries and
// "4x" is not 4 threads. Both binaries refuse with the usage exit code.
TEST(CliExit, MalformedNumberExits2) {
  const std::pair<std::string, std::string> cases[] = {
      {"--retries two", "retries"},
      {"--threads 4x", "threads"},
      {"--scale abc", "scale"}};
  for (const auto& [bad, key] : cases) {
    std::string err;
    EXPECT_EQ(run_capturing_stderr(VPCTL_PATH, kScan + " " + bad, err), 2)
        << bad;
    EXPECT_NE(err.find("error: --" + key + " expects a number"),
              std::string::npos)
        << err;
  }
  std::string err;
  EXPECT_EQ(run_capturing_stderr(VPD_PATH,
                                 "--scale 0.03 --rounds 1 --round-retries x",
                                 err),
            2);
  EXPECT_NE(err.find("error: --round-retries expects a number"),
            std::string::npos)
      << err;
}

// Prepend depths are whole numbers in [0, 16], and the site must exist:
// "abc" is not depth 0, 255 and -1 must not wrap, and an unknown site
// must not run unprepended.
TEST(CliExit, BadPrependExits2) {
  for (const char* bad : {"MIA=abc", "MIA=-1", "MIA=17", "FOO=2"}) {
    EXPECT_EQ(run_vpctl(kScan + " --prepend " + bad), 2) << bad;
  }
  EXPECT_EQ(run_vpctl("sweep --scale 0.03 --max-prepend 17"), 2);
}

// Counts and ports must fit the field they set instead of wrapping.
// Only inputs that stay harmless when they do wrap are run here.
TEST(CliExit, NegativeCountExits2) {
  std::string err;
  EXPECT_EQ(run_capturing_stderr(VPD_PATH,
                                 "--scale 0.02 --round-retries -1 --rounds 1 "
                                 "--exit-after-rounds",
                                 err),
            2);
  EXPECT_NE(err.find("error: --round-retries expects a number in [0, "),
            std::string::npos)
      << err;
  EXPECT_EQ(run_capturing_stderr(VPCTL_PATH,
                                 "campaign --scale 0.03 --rounds 2 "
                                 "--concurrency -1",
                                 err),
            2);
  EXPECT_NE(err.find("error: --concurrency expects a number in [0, "),
            std::string::npos)
      << err;
  EXPECT_EQ(run_vpctl("sweep --scale 0.03 --max-prepend -1"), 2);
}

TEST(CliExit, ScanOutUnwritableExits6) {
  EXPECT_EQ(run_vpctl(kScan + " --out " + unwritable("c.csv")),
            kWriteFailedExit);
}

TEST(CliExit, MetricsOutUnwritableExits6) {
  EXPECT_EQ(run_vpctl(kScan + " --metrics-out " + unwritable("m.json")),
            kWriteFailedExit);
}

TEST(CliExit, ExportLoadUnwritableExits6) {
  EXPECT_EQ(run_vpctl("export-load --scale 0.03 --out " + unwritable("l.csv")),
            kWriteFailedExit);
}

TEST(CliExit, CampaignOutUnwritableExits6) {
  EXPECT_EQ(run_vpctl("campaign --scale 0.03 --rounds 2 --out " +
                      unwritable("all.csv")),
            kWriteFailedExit);
}

TEST(CliExit, WritablePathsExitZeroAndLeaveArtifacts) {
  const std::string csv = test_dir() + "/c.csv";
  const std::string json = test_dir() + "/m.json";
  const std::string prom = test_dir() + "/m.prom";
  ASSERT_EQ(run_vpctl(kScan + " --out " + csv + " --metrics-out " + json), 0);
  EXPECT_TRUE(file_exists(csv));
  EXPECT_TRUE(file_exists(json));
  ASSERT_EQ(run_vpctl(kScan + " --no-metrics --metrics-out " + prom), 0);
  EXPECT_TRUE(file_exists(prom));
}

TEST(CliExit, PlaybookOutUnwritableExits6) {
  EXPECT_EQ(run_vpctl("playbook --scale 0.03 --attack polarized --top 2 "
                      "--out " +
                      unwritable("p.csv")),
            kWriteFailedExit);
}

TEST(CliExit, PlaybookIsByteIdenticalAcrossThreads) {
  // The written playbook is an artifact of the attack and the search,
  // never of the worker count that evaluated the candidates.
  const std::string one = test_dir() + "/playbook_t1.csv";
  const std::string three = test_dir() + "/playbook_t3.csv";
  const std::string common =
      "playbook --scale 0.03 --attack polarized,spoofed --magnitude 2 "
      "--max-prepend 2 --top 4 ";
  ASSERT_EQ(run_vpctl(common + "--threads 1 --out " + one), 0);
  ASSERT_EQ(run_vpctl(common + "--threads 3 --out " + three), 0);
  const std::string a = read_file(one);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, read_file(three));
}

TEST(CliExit, JournalUnwritableMidCampaignExits6) {
  // VP_JOURNAL_FAIL_AT=2 fails every frame write from the first round
  // append on — the signature of the journal directory going unwritable
  // (disk full, read-only remount) mid-campaign. The campaign must
  // surface that as the write-failure exit code, never exit 0 after
  // silently dropping frames.
  const std::string journal = test_dir() + "/fail_mid.bin";
  EXPECT_EQ(run_vpctl("campaign --scale 0.03 --rounds 3 --seed 5 --journal " +
                          journal,
                      "VP_JOURNAL_FAIL_AT=2 "),
            kWriteFailedExit);
  std::remove(journal.c_str());
}

/// Forks vpctl campaign, delivers `signum` once `when` says so, and
/// returns the exit code (or -1 on signal death).
int run_vpctl_signalled(const std::vector<std::string>& args, int signum,
                        const std::function<bool()>& when) {
  const pid_t pid = fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, 1);
    ::dup2(null_fd, 2);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(VPCTL_PATH));
    for (const std::string& arg : args)
      argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(VPCTL_PATH, argv.data());
    ::_exit(127);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{60};
  while (!when() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  ::kill(pid, signum);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<std::uint64_t>(st.st_size)
             : 0;
}

TEST(CliExit, SigintEarlyInCampaignExits7AndLeavesResumablePrefix) {
  // Interrupt as soon as the journal file appears (the campaign has just
  // opened it; the signal handler went in before the scenario build).
  // Whatever prefix of rounds got in, the exit code is the distinct
  // interrupted one and the journal resumes into a complete campaign.
  // A round at this scale takes about 2 ms, so the campaign has enough of
  // them to still be running when the signal lands after a 5 ms poll.
  const std::string journal = test_dir() + "/sigint_early.bin";
  const std::string csv = test_dir() + "/sigint_early.csv";
  const std::vector<std::string> args = {
      "campaign", "--scale", "0.03", "--rounds", "60", "--seed",   "5",
      "--journal", journal,  "--out", csv};
  EXPECT_EQ(run_vpctl_signalled(args, SIGINT,
                                [&journal] { return file_exists(journal); }),
            kInterruptedExit);
  // An interrupted campaign must not write the all-rounds CSV (it would
  // be missing rounds).
  EXPECT_FALSE(file_exists(csv));

  std::string resume;
  for (const std::string& arg : args) resume += arg + " ";
  EXPECT_EQ(run_vpctl(resume + "--resume"), kResumedExit);
  EXPECT_TRUE(file_exists(csv));
  std::remove(journal.c_str());
  std::remove(csv.c_str());
}

TEST(CliExit, SigintMidCampaignFinishesInFlightRoundThenExits7) {
  // Interrupt once the first round's journal append has landed: the
  // in-flight round completes (the journal stays a clean prefix) and a
  // resume finishes the campaign producing the same artifact as an
  // uninterrupted run.
  const std::string journal = test_dir() + "/sigint_mid.bin";
  const std::string csv = test_dir() + "/sigint_mid.csv";
  const std::string base_journal = test_dir() + "/sigint_base.bin";
  const std::string base_csv = test_dir() + "/sigint_base.csv";
  const std::string common =
      "campaign --scale 0.03 --rounds 60 --seed 5 ";
  ASSERT_EQ(run_vpctl(common + "--journal " + base_journal + " --out " +
                      base_csv),
            0);

  const std::vector<std::string> args = {
      "campaign", "--scale", "0.03", "--rounds", "60", "--seed",   "5",
      "--journal", journal,  "--out", csv};
  // A manifest-only journal is a few dozen bytes; any size beyond 1 KB
  // means at least one round record was appended.
  const int rc = run_vpctl_signalled(args, SIGINT, [&journal] {
    return file_size(journal) > 1024;
  });
  EXPECT_EQ(rc, kInterruptedExit);
  EXPECT_FALSE(file_exists(csv));

  std::string resume;
  for (const std::string& arg : args) resume += arg + " ";
  EXPECT_EQ(run_vpctl(resume + "--resume"), kResumedExit);
  EXPECT_EQ(read_file(csv), read_file(base_csv));
  for (const std::string& path : {journal, csv, base_journal, base_csv})
    std::remove(path.c_str());
}

TEST(CliExit, MetricsFailureDoesNotMaskJournalRefusal) {
  // A campaign refused for journal fingerprint mismatch must keep exit 4
  // even when --metrics-out is also unwritable: the more specific
  // failure wins.
  const std::string journal = test_dir() + "/j.bin";
  ASSERT_EQ(run_vpctl("campaign --scale 0.03 --rounds 2 --seed 5 --journal " +
                      journal),
            0);
  EXPECT_EQ(run_vpctl("campaign --scale 0.03 --rounds 3 --seed 5 --journal " +
                      journal + " --resume --metrics-out " +
                      unwritable("m.json")),
            4);
}

TEST(CliExit, ForeignSiteTableInJournalExits5WithoutCsv) {
  // B-Root has two sites. A CRC-valid round record whose site table has
  // three and maps a block to site 2 is refused on resume (exit 5)
  // before anything renders the block's site.
  const std::string journal = test_dir() + "/foreign_sites.bin";
  const std::string csv = test_dir() + "/foreign_sites.csv";
  const std::string common = "campaign --scale 0.03 --rounds 2 --seed 5 ";
  ASSERT_EQ(run_vpctl(common + "--journal " + journal), 0);
  const std::string written = read_file(journal);
  // Keep the manifest frame: an 8-byte header (payload length, CRC) and
  // its payload.
  const std::size_t manifest_frame =
      8 + vp::util::ByteReader{written}.get<std::uint32_t>();
  vp::core::RoundResult forged;
  forged.raw_replies_per_site = {1, 1, 1};
  forged.map.set(vp::net::Block24{0x0a0b0c}, 2, 10.0f);
  std::ofstream{journal, std::ios::binary | std::ios::trunc}
      << written.substr(0, manifest_frame)
      << vp::core::CampaignJournal::frame(
             vp::core::CampaignJournal::encode_round(0, forged));
  std::remove(csv.c_str());
  EXPECT_EQ(run_vpctl(common + "--journal " + journal + " --resume --out " +
                      csv),
            5);
  EXPECT_FALSE(file_exists(csv));
  std::remove(journal.c_str());
}

}  // namespace
