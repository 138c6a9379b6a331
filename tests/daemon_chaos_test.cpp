// Chaos harness for verfploeterd: kill-and-restart the real vpd binary
// at every journal write point, wedge rounds into the watchdog, inject
// total probe loss, and take the journal directory away — and after each
// fault assert the one invariant the daemon exists for: the served map
// is always the last good round's map (or its journal-resumed
// equivalent), byte-identical to what an uninterrupted offline `vpctl
// campaign` run produces for the same round. A hostile client that
// trickles its request must not stop the daemon serving anyone else.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "daemon_test_util.hpp"

namespace vp {
namespace {

using namespace vp::daemon_test;

constexpr int kKilledExit = 86;  // VP_JOURNAL_CRASH_AT's _exit code
constexpr unsigned kRounds = 4;

std::string test_dir() {
  static const std::string dir = [] {
    std::string d =
        "/tmp/vp_daemon_chaos_" + std::to_string(static_cast<long>(getpid()));
    mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

const std::string kCommon = "--scale 0.03 --seed 5";

/// Rounds are pure functions of their spec (which does not depend on the
/// round budget), so one uninterrupted 4-round vpctl run yields the
/// ground-truth bytes for every chaos scenario below, whatever its
/// --rounds value.
const std::string& baseline_csv() {
  static const std::string text = [] {
    const std::string csv = test_dir() + "/base.csv";
    EXPECT_EQ(run_blocking(VPCTL_PATH,
                           "campaign " + kCommon + " --rounds " +
                               std::to_string(kRounds) + " --out " + csv),
              0);
    return read_file(csv);
  }();
  return text;
}

std::vector<std::string> serving_args(unsigned rounds,
                                      const std::string& port_file,
                                      const std::vector<std::string>& extra = {}) {
  std::vector<std::string> args = {"--scale",  "0.03",
                                   "--seed",   "5",
                                   "--rounds", std::to_string(rounds),
                                   "--listen", "0",
                                   "--port-file", port_file};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

/// Spawns a serving vpd, waits for `needle` on /healthz, byte-compares
/// /map against the baseline's `expect_round` section, and SIGTERMs it.
/// Every chaos scenario funnels through here: whatever the fault, the
/// served bytes must be a good round's bytes.
void expect_serves_round(const std::vector<std::string>& args,
                         const std::map<std::string, std::string>& env,
                         const std::string& port_file,
                         const std::string& needle, unsigned expect_round,
                         const std::vector<std::string>& extra_needles = {}) {
  const pid_t pid = spawn_vpd(VPD_PATH, args, env);
  const std::uint16_t port = wait_port(port_file);
  ASSERT_GT(port, 0) << "daemon never wrote its port file";

  const std::string health = poll_for(port, "/healthz", needle);
  ASSERT_FALSE(health.empty())
      << "healthz never matched: " << needle;
  for (const std::string& extra : extra_needles)
    EXPECT_NE(health.find(extra), std::string::npos) << health;

  const HttpReply map = http_get(port, "/map");
  EXPECT_EQ(map.status, 200);
  EXPECT_EQ(map.body, round_section(baseline_csv(), expect_round));

  EXPECT_EQ(terminate_vpd(pid), 0);
  std::remove(port_file.c_str());
}

TEST(DaemonChaos, KillAtEveryJournalWritePointThenResumeServesLastGood) {
  // A 4-round campaign makes 5 journal writes (manifest + one append per
  // round). Crash at each of them — leaving behind a missing manifest, a
  // torn manifest, an empty campaign, a torn first append, and a torn
  // last append — and every restart must still converge on round 3's
  // exact bytes.
  ASSERT_FALSE(baseline_csv().empty());
  for (int k = 1; k <= static_cast<int>(kRounds) + 1; ++k) {
    SCOPED_TRACE("crash at journal write " + std::to_string(k));
    const std::string journal =
        test_dir() + "/crash_" + std::to_string(k) + ".journal";
    EXPECT_EQ(run_blocking(VPD_PATH,
                           kCommon + " --rounds " + std::to_string(kRounds) +
                               " --journal " + journal +
                               " --exit-after-rounds",
                           "VP_JOURNAL_CRASH_AT=" + std::to_string(k) + " "),
              kKilledExit);

    const std::string port_file =
        test_dir() + "/crash_" + std::to_string(k) + ".port";
    expect_serves_round(
        serving_args(kRounds, port_file, {"--journal", journal, "--resume"}),
        {}, port_file, "\"map_round\":" + std::to_string(kRounds - 1),
        kRounds - 1, {"\"state\":\"fresh\""});
    std::remove(journal.c_str());
  }
}

TEST(DaemonChaos, WatchdogExhaustedRetriesKeepsServingDegraded) {
  // Round 1 wedges far past the watchdog deadline with no retries left:
  // the round fails, the daemon degrades — and keeps serving round 0's
  // map, untouched.
  ASSERT_FALSE(baseline_csv().empty());
  const std::string port_file = test_dir() + "/wedge0.port";
  expect_serves_round(
      serving_args(2, port_file,
                   {"--watchdog-ms", "300", "--round-retries", "0"}),
      {{"VP_DAEMON_WEDGE_ROUND", "1"}, {"VP_DAEMON_WEDGE_MS", "30000"}},
      port_file, "\"state\":\"degraded\"", 0,
      {"\"reason\":\"watchdog-killed\"", "\"map_round\":0",
       "\"watchdog_kills\":1"});
}

TEST(DaemonChaos, WatchdogKillRecoversToFreshOnRetry) {
  // Same wedge, but one retry in the budget: the wedge fires once per
  // process, so the retry attempt runs clean and the daemon ends Fresh
  // on round 1 — a watchdog kill is an incident, not an outage.
  ASSERT_FALSE(baseline_csv().empty());
  const std::string port_file = test_dir() + "/wedge1.port";
  const pid_t pid = spawn_vpd(
      VPD_PATH,
      serving_args(2, port_file,
                   {"--watchdog-ms", "300", "--round-retries", "1"}),
      {{"VP_DAEMON_WEDGE_ROUND", "1"}, {"VP_DAEMON_WEDGE_MS", "30000"}});
  const std::uint16_t port = wait_port(port_file);
  ASSERT_GT(port, 0);

  const std::string health = poll_for(port, "/healthz", "\"map_round\":1");
  ASSERT_FALSE(health.empty());
  EXPECT_NE(health.find("\"state\":\"fresh\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"watchdog_kills\":1"), std::string::npos) << health;

  // The kill and the recovery are both visible in the metrics endpoint.
  const HttpReply metrics = http_get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("vp_daemon_rounds_watchdog_killed_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("vp_daemon_state 1"), std::string::npos);

  const HttpReply map = http_get(port, "/map");
  EXPECT_EQ(map.body, round_section(baseline_csv(), 1));

  EXPECT_EQ(terminate_vpd(pid), 0);
  std::remove(port_file.c_str());
}

TEST(DaemonChaos, EmptyRoundNeverReplacesTheServedMap) {
  // Round 1 completes but maps zero blocks (100% probe loss). A round
  // that "succeeds" with an empty map must be classified as failed:
  // round 0's map keeps serving.
  ASSERT_FALSE(baseline_csv().empty());
  const std::string port_file = test_dir() + "/loss.port";
  expect_serves_round(
      serving_args(2, port_file, {"--round-retries", "0"}),
      {{"VP_DAEMON_LOSS_ROUND", "1"}}, port_file, "\"state\":\"degraded\"", 0,
      {"\"reason\":\"empty-round\"", "\"map_round\":0",
       "\"rounds_failed\":1"});
}

TEST(DaemonChaos, UnopenableJournalDirDegradesButServesAndMeasures) {
  // The journal directory does not exist: the journal can never open.
  // Disks fill; maps survive — the daemon degrades (journal-io) but both
  // measuring and serving continue to the final round.
  ASSERT_FALSE(baseline_csv().empty());
  const std::string port_file = test_dir() + "/nojournal.port";
  expect_serves_round(
      serving_args(2, port_file,
                   {"--journal", test_dir() + "/no-such-dir/j.bin"}),
      {}, port_file, "\"map_round\":1", 1,
      {"\"state\":\"degraded\"", "\"reason\":\"journal-io\"",
       "\"journal\":\"io-error\""});
}

TEST(DaemonChaos, JournalFailureMidCampaignDegradesButKeepsMeasuring) {
  // The journal goes unwritable after round 0's append (frame 3 of
  // manifest + three rounds fails): the daemon degrades but round 2
  // still runs and its map is served — measurement never depends on
  // journal health.
  ASSERT_FALSE(baseline_csv().empty());
  const std::string journal = test_dir() + "/fail_mid.journal";
  const std::string port_file = test_dir() + "/fail_mid.port";
  expect_serves_round(
      serving_args(3, port_file, {"--journal", journal}),
      {{"VP_JOURNAL_FAIL_AT", "3"}}, port_file, "\"map_round\":2", 2,
      {"\"state\":\"degraded\"", "\"reason\":\"journal-io\""});
  std::remove(journal.c_str());
}

TEST(DaemonChaos, TricklingClientCannotHoldTheServingThread) {
  // The server answers one connection at a time. A client that sends its
  // request a byte every 200 ms and never ends the headers must be cut
  // off at the per-request deadline (5 s from accept), so a /healthz
  // queued behind it answers within that deadline plus slack.
  constexpr double kDeadlineS = 5.0;
  constexpr double kSlackS = 3.0;
  const std::string port_file = test_dir() + "/trickle.port";
  const pid_t pid = spawn_vpd(VPD_PATH, serving_args(1, port_file));
  const std::uint16_t port = wait_port(port_file);
  ASSERT_GT(port, 0);
  ASSERT_FALSE(poll_for(port, "/healthz", "\"map_round\":0").empty());

  const int trickler = connect_loopback(port, 2 * (kDeadlineS + kSlackS));
  ASSERT_GE(trickler, 0);
  std::atomic<bool> stop{false};
  std::thread trickle{[&] {
    const std::string prefix = "GET /healthz HTTP/1.1\r\nX-Pad: ";
    for (std::size_t i = 0; !stop.load(); ++i) {
      const char byte = i < prefix.size() ? prefix[i] : 'a';
      if (::send(trickler, &byte, 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds{200});
    }
  }};
  // Let the server take the trickler first, then queue a health check.
  std::this_thread::sleep_for(std::chrono::milliseconds{500});
  const auto asked = std::chrono::steady_clock::now();
  const HttpReply health =
      http_get(port, "/healthz", 2 * (kDeadlineS + kSlackS));
  const double waited_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - asked)
          .count();
  stop.store(true);
  trickle.join();
  // The trickler got a 400 for its unfinished request, then the close.
  const std::string cut = read_all(trickler);
  ::close(trickler);

  EXPECT_EQ(health.status, 200);
  EXPECT_LT(waited_s, kDeadlineS + kSlackS);
  EXPECT_EQ(cut.rfind("HTTP/1.1 400", 0), 0u) << cut;
  EXPECT_EQ(terminate_vpd(pid), 0);
  std::remove(port_file.c_str());
}

}  // namespace
}  // namespace vp
