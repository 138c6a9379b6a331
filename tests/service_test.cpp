// Unit tests for the verfploeterd service layer: the HTTP primitives
// (parse/render/decode plus real socket round-trips, HEAD included), the
// daemon's Fresh/Stale/Degraded state machine, watchdog supervision,
// journal resume and degraded-mode serving, the query endpoints and the
// per-snapshot /map render cache, and a serve-while-measuring race for
// TSan. Everything runs in-process against one small Scenario — the
// forked-binary chaos and soak harnesses live in daemon_chaos_test /
// daemon_soak_test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/dataset_io.hpp"
#include "net/http_server.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "service/daemon.hpp"

namespace vp {
namespace {

// ---------------------------------------------------------------------
// HTTP primitives (no sockets).

TEST(Http, UrlDecode) {
  EXPECT_EQ(net::url_decode("a%20b+c"), "a b c");
  EXPECT_EQ(net::url_decode("MIA%3D2%2CLAX%3D0"), "MIA=2,LAX=0");
  // Invalid escapes pass through untouched.
  EXPECT_EQ(net::url_decode("100%"), "100%");
  EXPECT_EQ(net::url_decode("%zz"), "%zz");
}

TEST(Http, ParseRequestLine) {
  net::HttpRequest request;
  ASSERT_TRUE(net::parse_http_request(
      "GET /load?config=MIA%3D2&x=a+b HTTP/1.1\r\nHost: x\r\n\r\n", request));
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/load");
  EXPECT_EQ(request.param("config"), "MIA=2");
  EXPECT_EQ(request.param("x"), "a b");
  EXPECT_EQ(request.param("missing", "fallback"), "fallback");
}

TEST(Http, ParseRejectsMalformed) {
  net::HttpRequest request;
  EXPECT_FALSE(net::parse_http_request("", request));
  EXPECT_FALSE(net::parse_http_request("GET\r\n", request));
  EXPECT_FALSE(net::parse_http_request("/nopath HTTP/1.1\r\n", request));
}

TEST(Http, RenderHeadCarriesBodyLength) {
  const std::string text =
      net::render_http_head(net::HttpResponse::json("{\"a\":1}"));
  EXPECT_TRUE(text.starts_with("HTTP/1.1 200 "));
  EXPECT_NE(text.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(text.find("Content-Type: application/json\r\n"),
            std::string::npos);
  // The head stops at the blank line; the body is sent after it.
  EXPECT_TRUE(text.ends_with("Connection: close\r\n\r\n"));
}

/// One blocking request against a live HttpServer, returning the raw
/// response.
std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = method + " " + target + " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0)
    response.append(buffer, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

TEST(HttpServer, ServesOverRealSocket) {
  net::HttpServer server;
  ASSERT_TRUE(server.start(0, [](const net::HttpRequest& request) {
    return net::HttpResponse::json("{\"path\":\"" + request.path + "\"}");
  }));
  ASSERT_GT(server.port(), 0);
  const std::string response = http_request(server.port(), "GET", "/ping");
  EXPECT_TRUE(response.starts_with("HTTP/1.1 200 "));
  EXPECT_TRUE(response.ends_with("{\"path\":\"/ping\"}"));
  server.stop();
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------
// Daemon tests share one small Scenario (route computation dominates
// construction cost; the daemon itself only borrows it).

class DaemonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.scale = 0.03;
    scenario_ = new analysis::Scenario(config);
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const analysis::Scenario& scenario() { return *scenario_; }

  static service::DaemonConfig fast_config(std::uint32_t rounds) {
    service::DaemonConfig config;
    config.probe.measurement_id = 100;
    config.rounds = rounds;
    config.threads = 2;
    config.watchdog_ms = 60'000.0;
    return config;
  }

  static net::HttpRequest get(const std::string& path,
                              const std::string& config = "") {
    net::HttpRequest request;
    request.method = "GET";
    request.path = path;
    if (!config.empty()) request.query["config"] = config;
    return request;
  }

 private:
  static analysis::Scenario* scenario_;
};

analysis::Scenario* DaemonTest::scenario_ = nullptr;

/// Scoped environment variable for the daemon's chaos hooks.
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST_F(DaemonTest, InitServes503UntilFirstRound) {
  service::Daemon daemon{scenario(), scenario().broot(), fast_config(0)};
  EXPECT_EQ(daemon.status().state, service::MapState::kInit);
  EXPECT_EQ(daemon.handle(get("/block/10.0.0.1")).status, 503);
  EXPECT_EQ(daemon.handle(get("/healthz")).status, 503);
  EXPECT_EQ(daemon.handle(get("/map")).status, 503);
  // /metrics and /drift answer even without a map.
  EXPECT_EQ(daemon.handle(get("/metrics")).status, 200);
  EXPECT_EQ(daemon.handle(get("/drift")).body_view(),
            "{\"available\":false}");
}

TEST_F(DaemonTest, RoundsPublishFreshMapAndDrift) {
  service::Daemon daemon{scenario(), scenario().broot(), fast_config(3)};
  ASSERT_TRUE(daemon.run_rounds());

  const service::DaemonStatus status = daemon.status();
  EXPECT_EQ(status.state, service::MapState::kFresh);
  EXPECT_EQ(status.reason, service::DegradedReason::kNone);
  EXPECT_EQ(status.rounds_completed, 3u);
  EXPECT_EQ(status.rounds_failed, 0u);
  EXPECT_EQ(status.map_round, 2u);

  const auto served = daemon.current_map();
  ASSERT_NE(served, nullptr);
  EXPECT_FALSE(served->from_journal);
  ASSERT_GT(served->result.map.mapped_blocks(), 0u);

  // /block answers with the map's own assignment plus staleness metadata.
  const auto& [block, site] = *served->result.map.entries().begin();
  const auto response =
      daemon.handle(get("/block/" + block.address(7).to_string()));
  EXPECT_EQ(response.status, 200);
  const std::string code =
      site >= 0
          ? scenario().broot().sites[static_cast<std::size_t>(site)].code
          : "UNK";
  EXPECT_NE(response.body_view().find("\"site\":\"" + code + "\""),
            std::string::npos);
  EXPECT_NE(response.body_view().find("\"map_round\":2"), std::string::npos);
  EXPECT_NE(response.body_view().find("\"map_state\":\"fresh\""),
            std::string::npos);

  // Drift covers the newest good-round transition.
  const service::DriftReport drift = daemon.drift();
  EXPECT_TRUE(drift.available);
  EXPECT_EQ(drift.from_round, 1u);
  EXPECT_EQ(drift.to_round, 2u);
  EXPECT_EQ(daemon.handle(get("/drift")).status, 200);

  // /map is byte-identical to write_catchment_csv of the served round.
  std::ostringstream expected;
  core::write_catchment_csv(expected, served->result, scenario().broot());
  EXPECT_EQ(daemon.handle(get("/map")).body_view(), expected.str());
}

// The drift report's running mean and sample stddev, against a two-pass
// computation over every transition's moved fraction. A daemon with a
// budget of k rounds reports the transition (k-2 -> k-1) last, and rounds
// do not depend on the budget, so one daemon per budget yields them all.
TEST_F(DaemonTest, DriftStatisticsMatchTwoPassOverTransitions) {
  constexpr std::uint32_t kRounds = 5;
  std::vector<double> moved;
  service::DriftReport last;
  for (std::uint32_t budget = 2; budget <= kRounds; ++budget) {
    service::Daemon daemon{scenario(), scenario().broot(),
                           fast_config(budget)};
    ASSERT_TRUE(daemon.run_rounds());
    last = daemon.drift();
    ASSERT_TRUE(last.available);
    ASSERT_EQ(last.to_round, budget - 1);
    moved.push_back(last.diff.moved_fraction());
  }
  ASSERT_GE(moved.size(), 3u);
  double mean = 0.0;
  for (const double m : moved) mean += m;
  mean /= static_cast<double>(moved.size());
  double sum_sq = 0.0;
  for (const double m : moved) sum_sq += (m - mean) * (m - mean);
  const double stddev =
      std::sqrt(sum_sq / static_cast<double>(moved.size() - 1));
  ASSERT_GT(stddev, 0.0);
  EXPECT_NEAR(last.mean_moved_fraction, mean, 1e-12);
  EXPECT_NEAR(last.stddev_moved_fraction, stddev, 1e-12);
}

TEST_F(DaemonTest, MapBodyIsRenderedOncePerSnapshot) {
  obs::Counter& renders = obs::metrics().counter("vp_serve_map_renders_total");
  service::Daemon daemon{scenario(), scenario().broot(), fast_config(1)};
  ASSERT_TRUE(daemon.run_rounds());
  const std::uint64_t before = renders.value();
  const net::HttpResponse response = daemon.handle(get("/map"));
  const std::string first{response.body_view()};
  EXPECT_FALSE(first.empty());
  // A cached /map shares the snapshot's bytes instead of copying them.
  EXPECT_EQ(daemon.handle(get("/map")).body, response.body);
  EXPECT_EQ(renders.value(), before + 1);

  // A publish swaps in a new snapshot, whose first /map renders again
  // (round 0 once more: the same bytes). Only the address is kept, so
  // that nothing here holds the first snapshot.
  const service::ServedMap* measured = daemon.current_map().get();
  ASSERT_TRUE(daemon.run_rounds());
  EXPECT_NE(daemon.current_map().get(), measured);
  EXPECT_EQ(daemon.handle(get("/map")).body_view(), first);
  EXPECT_EQ(renders.value(), before + 2);
  // One more publish retires the first snapshot as the drift baseline
  // too; the earlier response alone keeps it, and its body, alive.
  ASSERT_TRUE(daemon.run_rounds());
  EXPECT_EQ(response.body_view(), first);
}

TEST_F(DaemonTest, HeadMatchesGetOverRealSocket) {
  service::Daemon daemon{scenario(), scenario().broot(), fast_config(1)};
  ASSERT_TRUE(daemon.run_rounds());
  net::HttpServer server;
  ASSERT_TRUE(server.start(0, [&daemon](const net::HttpRequest& request) {
    return daemon.handle(request);
  }));
  /// Status line, Content-Length and body bytes of a raw response.
  struct Parsed {
    std::string status;
    std::string length;
    std::string body;
  };
  const auto parse = [](const std::string& raw) {
    const std::size_t end = raw.find("\r\n\r\n");
    const std::size_t at = raw.find("Content-Length: ");
    EXPECT_NE(end, std::string::npos);
    EXPECT_LT(at, end);
    const std::size_t from = at + 16;
    return Parsed{raw.substr(0, raw.find("\r\n")),
                  raw.substr(from, raw.find("\r\n", from) - from),
                  raw.substr(end + 4)};
  };
  for (const char* path : {"/healthz", "/map"}) {
    const Parsed get_reply = parse(http_request(server.port(), "GET", path));
    const Parsed head_reply = parse(http_request(server.port(), "HEAD", path));
    EXPECT_EQ(get_reply.status, "HTTP/1.1 200 OK") << path;
    EXPECT_EQ(head_reply.status, get_reply.status) << path;
    EXPECT_EQ(get_reply.length, std::to_string(get_reply.body.size()))
        << path;
    EXPECT_EQ(head_reply.length, get_reply.length) << path;
    EXPECT_TRUE(head_reply.body.empty()) << path;
  }
  server.stop();
}

TEST_F(DaemonTest, BlockEndpointRejectsGarbageAddress) {
  service::Daemon daemon{scenario(), scenario().broot(), fast_config(1)};
  ASSERT_TRUE(daemon.run_rounds());
  EXPECT_EQ(daemon.handle(get("/block/not-an-ip")).status, 400);
  EXPECT_EQ(daemon.handle(get("/block/1.2.3.4.5")).status, 400);
  EXPECT_EQ(daemon.handle(get("/nope")).status, 404);
}

TEST_F(DaemonTest, LoadEndpointPredictsUnderPrependConfig) {
  service::Daemon daemon{scenario(), scenario().broot(), fast_config(1)};
  ASSERT_TRUE(daemon.run_rounds());

  const auto baseline = daemon.handle(get("/load"));
  ASSERT_EQ(baseline.status, 200);
  EXPECT_NE(baseline.body_view().find("\"sites\":["), std::string::npos);

  const auto prepended = daemon.handle(get("/load", "MIA=3"));
  ASSERT_EQ(prepended.status, 200);
  EXPECT_NE(prepended.body_view().find("\"site\":\"MIA\",\"prepend\":3"),
            std::string::npos);
  // Demoting MIA must change the predicted split.
  EXPECT_NE(prepended.body_view(), baseline.body_view());

  EXPECT_EQ(daemon.handle(get("/load", "XXX=1")).status, 400);
  EXPECT_EQ(daemon.handle(get("/load", "MIA=99")).status, 400);
  EXPECT_EQ(daemon.handle(get("/load", "MIA")).status, 400);
  // The depth is the whole token, parsed strictly.
  EXPECT_EQ(daemon.handle(get("/load", "MIA=abc")).status, 400);
  EXPECT_EQ(daemon.handle(get("/load", "MIA=")).status, 400);
  EXPECT_EQ(daemon.handle(get("/load", "MIA=2x")).status, 400);
}

// Exact /load bodies at scale 0.03, written before the split loop and
// the delta session's published-state comparison changed: the base
// configuration, one demoted site, and a delta touching both sites. A
// diff here is a routing or load-split bug; never edit these literals to
// make a change pass.
TEST_F(DaemonTest, LoadBodiesArePinned) {
  service::Daemon daemon{scenario(), scenario().broot(), fast_config(1)};
  ASSERT_TRUE(daemon.run_rounds());
  const std::string base =
      R"({"config":"","sites":[)"
      R"({"site":"LAX","prepend":0,"daily_queries":1185152.8,"share":0.7456},)"
      R"({"site":"MIA","prepend":0,"daily_queries":404327.2,"share":0.2544})"
      R"(],"unknown_queries":0.0})";
  EXPECT_EQ(daemon.handle(get("/load")).body_view(), base);
  EXPECT_EQ(
      daemon.handle(get("/load", "MIA=3")).body_view(),
      R"({"config":"MIA=3","sites":[)"
      R"({"site":"LAX","prepend":0,"daily_queries":1477378.3,"share":0.9295},)"
      R"({"site":"MIA","prepend":3,"daily_queries":112101.7,"share":0.0705})"
      R"(],"unknown_queries":0.0})");
  EXPECT_EQ(
      daemon.handle(get("/load", "LAX=2,MIA=1")).body_view(),
      R"({"config":"LAX=2,MIA=1","sites":[)"
      R"({"site":"LAX","prepend":2,"daily_queries":289782.9,"share":0.1823},)"
      R"({"site":"MIA","prepend":1,"daily_queries":1299697.1,"share":0.8177})"
      R"(],"unknown_queries":0.0})");
  // Back to the base configuration through the same session.
  EXPECT_EQ(daemon.handle(get("/load")).body_view(), base);
}

TEST_F(DaemonTest, WatchdogKillsWedgedAttemptThenRecovers) {
  // Round 1's first attempt wedges far past the watchdog deadline; the
  // supervisor must abandon it, degrade, and recover on the retry (the
  // wedge hook fires once per process).
  EnvGuard wedge_round{"VP_DAEMON_WEDGE_ROUND", "1"};
  EnvGuard wedge_ms{"VP_DAEMON_WEDGE_MS", "30000"};
  service::DaemonConfig config = fast_config(2);
  config.watchdog_ms = 150.0;
  config.round_retries = 1;
  config.retry_backoff_ms = 10.0;
  service::Daemon daemon{scenario(), scenario().broot(), config};
  ASSERT_TRUE(daemon.run_rounds());

  const service::DaemonStatus status = daemon.status();
  EXPECT_EQ(status.watchdog_kills, 1u);
  EXPECT_EQ(status.rounds_completed, 2u);
  EXPECT_EQ(status.rounds_failed, 0u);
  // The retry succeeded, so the daemon ends Fresh with round 1 served.
  EXPECT_EQ(status.state, service::MapState::kFresh);
  EXPECT_EQ(status.map_round, 1u);
}

TEST_F(DaemonTest, EmptyRoundDegradesButKeepsLastGoodMap) {
  // Round 1 runs under total probe loss: it completes but maps nothing.
  // The served map must stay at round 0 through the failure and move to
  // round 2 when measurement recovers.
  EnvGuard loss{"VP_DAEMON_LOSS_ROUND", "1"};
  service::DaemonConfig config = fast_config(3);
  config.round_retries = 0;
  service::Daemon daemon{scenario(), scenario().broot(), config};
  ASSERT_TRUE(daemon.run_rounds());

  const service::DaemonStatus status = daemon.status();
  EXPECT_EQ(status.rounds_completed, 2u);
  EXPECT_EQ(status.rounds_failed, 1u);
  EXPECT_EQ(status.state, service::MapState::kFresh);
  EXPECT_EQ(status.map_round, 2u);
  // The published sequence skipped the failed round entirely.
  const service::DriftReport drift = daemon.drift();
  EXPECT_EQ(drift.from_round, 0u);
  EXPECT_EQ(drift.to_round, 2u);
}

TEST_F(DaemonTest, RetryBackoffDoublesPastThirtyOneRetries) {
  // 34 retries of an all-loss round: the backoff before retry a is
  // base * 2^(a-1), which outgrows a 32-bit int at a = 32. A base of
  // 1e-9 ms keeps the whole ladder to (2^34 - 1) * 1e-9 ms, about 17 ms.
  EnvGuard loss{"VP_DAEMON_LOSS_ROUND", "0"};
  service::DaemonConfig config = fast_config(1);
  config.round_retries = 34;
  config.retry_backoff_ms = 1e-9;
  service::Daemon daemon{scenario(), scenario().broot(), config};
  const auto started = std::chrono::steady_clock::now();
  ASSERT_TRUE(daemon.run_rounds());
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - started)
                                .count();

  const service::DaemonStatus status = daemon.status();
  EXPECT_EQ(status.rounds_completed, 0u);
  EXPECT_EQ(status.rounds_failed, 1u);
  EXPECT_GE(elapsed_ms, 17.0);
}

TEST_F(DaemonTest, StaleIsDerivedFromMapAge) {
  service::DaemonConfig config = fast_config(1);
  config.stale_after_ms = 1.0;  // everything is instantly stale
  service::Daemon daemon{scenario(), scenario().broot(), config};
  ASSERT_TRUE(daemon.run_rounds());
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  EXPECT_EQ(daemon.status().state, service::MapState::kStale);
  const auto response = daemon.handle(get("/healthz"));
  EXPECT_EQ(response.status, 200);  // stale still serves
  EXPECT_NE(response.body_view().find("\"state\":\"stale\""),
            std::string::npos);
}

TEST_F(DaemonTest, JournalResumeRestoresServedMap) {
  const std::string journal = ::testing::TempDir() + "/service_resume.bin";
  std::remove(journal.c_str());

  service::DaemonConfig config = fast_config(2);
  config.journal_path = journal;
  config.resume = false;
  std::string measured_map;
  {
    service::Daemon daemon{scenario(), scenario().broot(), config};
    ASSERT_TRUE(daemon.run_rounds());
    EXPECT_EQ(daemon.journal_status(), core::JournalStatus::kFresh);
    measured_map = daemon.handle(get("/map")).body_view();
  }

  // A restarted daemon resumes the live map from the journal without
  // measuring anything, and serves the same bytes.
  config.resume = true;
  service::Daemon daemon{scenario(), scenario().broot(), config};
  ASSERT_TRUE(daemon.run_rounds());
  EXPECT_EQ(daemon.journal_status(), core::JournalStatus::kResumed);
  const service::DaemonStatus status = daemon.status();
  EXPECT_EQ(status.rounds_resumed, 2u);
  EXPECT_EQ(status.rounds_completed, 0u);
  EXPECT_EQ(status.map_round, 1u);
  const auto served = daemon.current_map();
  ASSERT_NE(served, nullptr);
  EXPECT_TRUE(served->from_journal);
  EXPECT_EQ(daemon.handle(get("/map")).body_view(), measured_map);
  std::remove(journal.c_str());
}

TEST_F(DaemonTest, UnopenableJournalDegradesButServes) {
  service::DaemonConfig config = fast_config(2);
  config.journal_path = ::testing::TempDir() + "/no-such-dir/journal.bin";
  service::Daemon daemon{scenario(), scenario().broot(), config};
  // Refusals are for mismatch/corruption only; I/O failure keeps running.
  ASSERT_TRUE(daemon.run_rounds());

  const service::DaemonStatus status = daemon.status();
  EXPECT_EQ(status.journal, core::JournalStatus::kIoError);
  EXPECT_EQ(status.state, service::MapState::kDegraded);
  EXPECT_EQ(status.reason, service::DegradedReason::kJournalIo);
  // Degraded never means down: the freshly measured map serves.
  EXPECT_EQ(status.rounds_completed, 2u);
  EXPECT_EQ(daemon.handle(get("/map")).status, 200);
  const auto response = daemon.handle(get("/healthz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body_view().find("\"reason\":\"journal-io\""),
            std::string::npos);
}

TEST_F(DaemonTest, MismatchedJournalIsRefused) {
  const std::string journal = ::testing::TempDir() + "/service_mismatch.bin";
  std::remove(journal.c_str());
  service::DaemonConfig config = fast_config(2);
  config.journal_path = journal;
  config.resume = false;
  {
    service::Daemon daemon{scenario(), scenario().broot(), config};
    ASSERT_TRUE(daemon.run_rounds());
  }
  // Same journal, different round-spacing policy: refusal, not serving.
  config.resume = true;
  config.sim_interval = util::SimTime::from_minutes(20);
  service::Daemon daemon{scenario(), scenario().broot(), config};
  EXPECT_FALSE(daemon.run_rounds());
  EXPECT_EQ(daemon.journal_status(),
            core::JournalStatus::kFingerprintMismatch);
  EXPECT_EQ(daemon.current_map(), nullptr);
  std::remove(journal.c_str());
}

TEST_F(DaemonTest, MetricsExportCarriesDaemonAndServeSeries) {
  service::Daemon daemon{scenario(), scenario().broot(), fast_config(1)};
  ASSERT_TRUE(daemon.run_rounds());
  (void)daemon.handle(get("/block/10.1.2.3"));
  (void)daemon.handle(get("/healthz"));
  const std::string text{daemon.handle(get("/metrics")).body_view()};
  for (const char* name :
       {"vp_daemon_state", "vp_daemon_map_age_seconds",
        "vp_daemon_rounds_completed_total", "vp_daemon_rounds_failed_total",
        "vp_daemon_rounds_watchdog_killed_total",
        "vp_serve_requests_total{endpoint=\"block\"}",
        "vp_serve_requests_total{endpoint=\"healthz\"}",
        "vp_serve_request_ms_bucket", "vp_serve_map_age_seconds_bucket"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

// ---------------------------------------------------------------------
// Serve-while-measuring: reader threads hammer every endpoint while the
// round loop measures and publishes. Run under TSan in CI; the assertion
// here is only that answers stay coherent (200/503, never torn).

TEST_F(DaemonTest, ConcurrentServingDuringMeasurementIsCoherent) {
  service::DaemonConfig config = fast_config(4);
  service::Daemon daemon{scenario(), scenario().broot(), config};

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> answered{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&daemon, &done, &answered, t] {
      const std::string paths[] = {"/block/10.0.0.1", "/healthz", "/map",
                                   "/drift", "/metrics"};
      net::HttpRequest request;
      request.method = "GET";
      while (!done.load(std::memory_order_relaxed)) {
        request.path = paths[static_cast<std::size_t>(t) % 5];
        const auto response = daemon.handle(request);
        EXPECT_TRUE(response.status == 200 || response.status == 503);
        if (response.status == 200 && request.path == "/map") {
          EXPECT_FALSE(response.body_view().empty());
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  ASSERT_TRUE(daemon.run_rounds());
  done.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(daemon.status().state, service::MapState::kFresh);
}

TEST_F(DaemonTest, RequestStopWindsDownPromptly) {
  service::DaemonConfig config = fast_config(0);  // run until stopped
  config.cadence_ms = 10.0;
  service::Daemon daemon{scenario(), scenario().broot(), config};
  std::thread loop{[&daemon] { EXPECT_TRUE(daemon.run_rounds()); }};
  while (daemon.status().rounds_completed < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  daemon.request_stop();
  loop.join();
  // The in-flight round finished; nothing was torn down mid-publish.
  EXPECT_GE(daemon.status().rounds_completed, 2u);
  EXPECT_NE(daemon.current_map(), nullptr);
}

}  // namespace
}  // namespace vp
