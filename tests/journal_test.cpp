// In-process tests for the campaign journal: round-trips, torn-tail
// recovery, bit-flip detection, fingerprint refusal, and the journaled
// Campaign resume path (including concurrency > 1). The out-of-process
// kill-point harness lives in crash_recovery_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "export_pin_round.hpp"
#include "util/atomic_file.hpp"

namespace vp::core {
namespace {

std::string temp_path(const char* tag) {
  return "/tmp/vp_journal_test_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".bin";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

/// A small synthetic result with every field populated, so round-trip
/// equality exercises the whole encoding.
RoundResult synthetic_round(std::uint32_t r) {
  RoundResult result;
  result.map.measurement_id = 100 + r;
  result.map.probes_sent = 1000 + r;
  result.map.blocks_probed = 990;
  result.map.cleaning = {900 + r, 1, 2, 3, 4, 5, 880};
  result.map.set(net::Block24{0x010200 + r}, 0, 12.5f + r);
  result.map.set(net::Block24{0x020300 + r}, 1);
  result.raw_replies_per_site = {400 + r, 500};
  result.started = util::SimTime::from_minutes(15.0 * r);
  result.probing_duration = util::SimTime::from_seconds(8.0);
  result.faults.probes_lost = 7 + r;
  result.faults.retries = 3;
  return result;
}

void expect_equal(const RoundResult& a, const RoundResult& b) {
  EXPECT_EQ(a.map.measurement_id, b.map.measurement_id);
  EXPECT_EQ(a.map.probes_sent, b.map.probes_sent);
  EXPECT_EQ(a.map.blocks_probed, b.map.blocks_probed);
  EXPECT_EQ(a.map.cleaning.raw_replies, b.map.cleaning.raw_replies);
  EXPECT_EQ(a.map.cleaning.kept, b.map.cleaning.kept);
  EXPECT_TRUE(a.map == b.map);  // every site, RTT bit and counter
  EXPECT_EQ(a.raw_replies_per_site, b.raw_replies_per_site);
  EXPECT_EQ(a.started.usec, b.started.usec);
  EXPECT_EQ(a.probing_duration.usec, b.probing_duration.usec);
  EXPECT_EQ(a.faults.probes_lost, b.faults.probes_lost);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
}

// Two sites, as every synthetic and pinned round carries.
const JournalManifest kManifest{0xfeedbeefcafe1234ull, 6, 2};

std::string journal_with_rounds(const std::string& path,
                                std::uint32_t count) {
  CampaignJournal journal;
  const auto opened = journal.open(path, kManifest, false);
  EXPECT_EQ(opened.status, JournalStatus::kFresh);
  for (std::uint32_t r = 0; r < count; ++r)
    EXPECT_TRUE(journal.append_round(r, synthetic_round(r)));
  journal.close();
  return read_file(path);
}

TEST(Journal, RoundTripsAllFields) {
  const std::string path = temp_path("roundtrip");
  journal_with_rounds(path, 3);
  CampaignJournal journal;
  const auto opened = journal.open(path, kManifest, true);
  ASSERT_EQ(opened.status, JournalStatus::kResumed);
  EXPECT_EQ(opened.truncated_bytes, 0u);
  ASSERT_EQ(opened.completed.size(), 3u);
  for (std::uint32_t r = 0; r < 3; ++r)
    expect_equal(opened.completed.at(r), synthetic_round(r));
  // The reopened journal accepts further appends.
  EXPECT_TRUE(journal.append_round(3, synthetic_round(3)));
  journal.close();
  CampaignJournal again;
  EXPECT_EQ(again.open(path, kManifest, true).completed.size(), 4u);
  std::remove(path.c_str());
}

TEST(Journal, TornTailIsTruncatedAndRecovers) {
  const std::string path = temp_path("torn");
  const std::string full = journal_with_rounds(path, 3);
  const std::string two = journal_with_rounds(path, 2);
  // Every proper prefix that still contains two whole rounds must
  // recover exactly those two and truncate the rest.
  for (std::size_t keep = two.size(); keep < full.size(); ++keep) {
    write_file(path, full.substr(0, keep));
    CampaignJournal journal;
    const auto opened = journal.open(path, kManifest, true);
    ASSERT_EQ(opened.status, JournalStatus::kResumed) << "keep " << keep;
    EXPECT_EQ(opened.completed.size(), 2u) << "keep " << keep;
    EXPECT_EQ(opened.truncated_bytes, keep - two.size());
    journal.close();
    EXPECT_EQ(read_file(path).size(), two.size());
  }
  std::remove(path.c_str());
}

TEST(Journal, TornManifestStartsFresh) {
  const std::string path = temp_path("tornmanifest");
  const std::string full = journal_with_rounds(path, 1);
  // Anything shorter than the whole manifest frame is "no usable state".
  for (const std::size_t keep : {std::size_t{0}, std::size_t{5}}) {
    write_file(path, full.substr(0, keep));
    CampaignJournal journal;
    EXPECT_EQ(journal.open(path, kManifest, true).status,
              JournalStatus::kFresh);
    journal.close();
  }
  std::remove(path.c_str());
}

TEST(Journal, EmptyFileResumesExactlyLikeMissing) {
  // The explicit 0-byte == missing contract: an empty journal is the
  // fingerprint of a crash before the manifest write, so a resume finds
  // no state to validate, reports kFresh, and recreates the file —
  // byte-for-byte the same outcome as resuming a path that never existed.
  const std::string missing = temp_path("missing");
  const std::string empty = temp_path("empty");
  std::remove(missing.c_str());
  write_file(empty, "");
  ASSERT_EQ(read_file(empty).size(), 0u);

  std::string contents[2];
  int i = 0;
  for (const std::string& path : {missing, empty}) {
    CampaignJournal journal;
    const auto opened = journal.open(path, kManifest, true);
    EXPECT_EQ(opened.status, JournalStatus::kFresh) << path;
    EXPECT_TRUE(opened.completed.empty()) << path;
    EXPECT_EQ(opened.truncated_bytes, 0u) << path;
    // The recreated journal accepts appends like any fresh one.
    EXPECT_TRUE(journal.append_round(0, synthetic_round(0))) << path;
    journal.close();
    contents[i++] = read_file(path);
  }
  EXPECT_FALSE(contents[0].empty());
  EXPECT_EQ(contents[0], contents[1]);
  std::remove(missing.c_str());
  std::remove(empty.c_str());
}

TEST(Journal, BitFlipInRecordBodyIsRejected) {
  const std::string path = temp_path("bitflip");
  const std::string full = journal_with_rounds(path, 3);
  const std::string manifest_only = journal_with_rounds(path, 0);
  // Flip one bit in the middle of the second round record's body.
  std::string flipped = full;
  const std::size_t target =
      manifest_only.size() + (full.size() - manifest_only.size()) / 2;
  flipped[target] = static_cast<char>(flipped[target] ^ 0x10);
  write_file(path, flipped);
  CampaignJournal journal;
  EXPECT_EQ(journal.open(path, kManifest, true).status,
            JournalStatus::kCorrupt);
  EXPECT_FALSE(journal.is_open());
  // Refusal must leave the file untouched (no truncation, no rewrite).
  EXPECT_EQ(read_file(path), flipped);
  std::remove(path.c_str());
}

TEST(Journal, BitFlipInManifestIsRejected) {
  const std::string path = temp_path("manifestflip");
  std::string data = journal_with_rounds(path, 1);
  data[10] = static_cast<char>(data[10] ^ 0x01);  // inside manifest payload
  write_file(path, data);
  CampaignJournal journal;
  EXPECT_EQ(journal.open(path, kManifest, true).status,
            JournalStatus::kCorrupt);
  std::remove(path.c_str());
}

TEST(Journal, FingerprintMismatchRefuses) {
  const std::string path = temp_path("mismatch");
  journal_with_rounds(path, 2);
  CampaignJournal journal;
  JournalManifest other = kManifest;
  other.fingerprint ^= 1;
  EXPECT_EQ(journal.open(path, other, true).status,
            JournalStatus::kFingerprintMismatch);
  JournalManifest fewer_rounds = kManifest;
  fewer_rounds.rounds = 4;
  EXPECT_EQ(journal.open(path, fewer_rounds, true).status,
            JournalStatus::kFingerprintMismatch);
  std::remove(path.c_str());
}

// Literal fingerprints: every v1 journal on disk was stamped with these,
// so each hashed slot must keep its value and its place.
TEST(Journal, ProbeFingerprintIsPinned) {
  EXPECT_EQ(probe_fingerprint(ProbeConfig{}), 0x51bae000bded4f18ULL);
  ProbeConfig probe;
  probe.max_retries = 2;
  probe.probe_timeout_ms = 500.0;
  probe.retry_backoff_ms = 100.0;
  probe.order_seed = 9;
  EXPECT_EQ(probe_fingerprint(probe), 0x1d171034c60a8497ULL);
}

/// A hand-built round that sets every encoded field: blocks in two /8
/// pages, nonzero RTTs, two sites' raw counts and a distinct value in
/// every cleaning and fault counter.
RoundResult pinned_round() {
  RoundResult result;
  result.map.measurement_id = 4242;
  result.map.probes_sent = 123'457;
  result.map.blocks_probed = 120'001;
  result.map.cleaning = {9001, 11, 12, 13, 14, 15, 8936};
  result.map.set(net::Block24{0x0a0000}, 0, 12.25f);
  result.map.set(net::Block24{0x0a0001}, 1, 7.5f);
  result.map.set(net::Block24{0xc00002}, 1, 153.125f);
  result.raw_replies_per_site = {5000, 4001};
  result.started = util::SimTime::from_minutes(30);
  result.probing_duration = util::SimTime::from_seconds(12.5);
  sim::FaultStats& f = result.faults;
  f.probes_lost = 21;
  f.replies_generated = 22;
  f.replies_lost = 23;
  f.rate_limited = 24;
  f.outage_drops = 25;
  f.withdrawn = 26;
  f.diverted = 27;
  f.delayed = 28;
  f.retries = 29;
  f.recovered = 30;
  return result;
}

// campaign_v1.journal pins what the decoder reads; these pin what the
// encoder writes: the size and CRC-32 of a manifest frame and a round
// frame.
TEST(Journal, EncodingIsPinned) {
  const std::string manifest =
      CampaignJournal::frame(CampaignJournal::encode_manifest(kManifest));
  EXPECT_EQ(manifest.size(), 25u);
  EXPECT_EQ(util::crc32(manifest), 0xe7f7feaau);
  const std::string round =
      CampaignJournal::frame(CampaignJournal::encode_round(3, pinned_round()));
  EXPECT_EQ(round.size(), 252u);
  EXPECT_EQ(util::crc32(round), 0xc6c22b8eu);
}

TEST(Journal, RoundIdBeyondManifestIsCorrupt) {
  const std::string path = temp_path("badround");
  {
    CampaignJournal journal;
    ASSERT_EQ(journal.open(path, kManifest, false).status,
              JournalStatus::kFresh);
    ASSERT_TRUE(journal.append_round(kManifest.rounds, synthetic_round(0)));
  }
  CampaignJournal journal;
  EXPECT_EQ(journal.open(path, kManifest, true).status,
            JournalStatus::kCorrupt);
  std::remove(path.c_str());
}

/// Resumes a journal holding the manifest plus one CRC-valid frame per
/// payload, and reports how the open ended.
JournalStatus resume_with(const char* tag,
                          const std::vector<std::string>& payloads,
                          const JournalManifest& manifest = kManifest) {
  const std::string path = temp_path(tag);
  std::string data =
      CampaignJournal::frame(CampaignJournal::encode_manifest(manifest));
  for (const std::string& payload : payloads)
    data += CampaignJournal::frame(payload);
  write_file(path, data);
  CampaignJournal journal;
  const JournalStatus status = journal.open(path, manifest, true).status;
  journal.close();
  std::remove(path.c_str());
  return status;
}

/// A block's little-endian index bytes, as a record stores them.
std::string le_bytes(net::Block24 block) {
  std::string bytes(4, '\0');
  for (int i = 0; i < 4; ++i)
    bytes[i] = static_cast<char>(block.index() >> (8 * i));
  return bytes;
}

/// `payload` with the `nth` (0-based) little-endian occurrence of block
/// `from` rewritten to block `to` — how a record that lists one block
/// twice gets forged, since a RoundResult cannot hold one.
std::string retarget(std::string payload, net::Block24 from, net::Block24 to,
                     int nth) {
  std::size_t at = payload.find(le_bytes(from));
  for (int k = 0; k < nth && at != std::string::npos; ++k)
    at = payload.find(le_bytes(from), at + 1);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) payload.replace(at, 4, le_bytes(to));
  return payload;
}

TEST(Journal, CrcValidRecordWithInvalidContentIsCorrupt) {
  // Distinctive block indices, so their bytes occur nowhere else in a
  // record. Two sites; A is mapped to site 0, B to site 1, each with an
  // RTT. A < B, so each block's occurrence 0 is in the map section and
  // occurrence 1 in the RTT section.
  const net::Block24 a{0xabcdef}, b{0xfedcba}, c{0x123456};
  const auto round_with = [&](anycast::SiteId site_a, float rtt_a) {
    RoundResult result;
    result.raw_replies_per_site = {1, 1};
    result.map.set(a, site_a, rtt_a);
    result.map.set(b, 1, 9.5f);
    return CampaignJournal::encode_round(0, result);
  };
  const std::string ok = round_with(0, 9.5f);
  ASSERT_EQ(resume_with("content_ok", {ok}), JournalStatus::kResumed);

  // A site id at or past the site count — including the bytes 0x80..0xff
  // that used to decode to negative ids. The map refuses kUnknownSite
  // (0xff), so that byte is forged over A's site.
  for (const int site : {2, 9, 127, -128}) {
    EXPECT_EQ(resume_with("content_site",
                          {round_with(static_cast<anycast::SiteId>(site),
                                      9.5f)}),
              JournalStatus::kCorrupt)
        << "site " << site;
  }
  std::string unknown_site = ok;
  unknown_site[unknown_site.find(le_bytes(a)) + 4] = '\xff';
  EXPECT_EQ(resume_with("content_site_ff", {unknown_site}),
            JournalStatus::kCorrupt);
  // A negative id stays refused when the deployment has enough sites for
  // its byte (0x80 = 128 < 200) to pass the count check.
  RoundResult wide;
  wide.raw_replies_per_site.assign(200, 1);
  wide.map.set(a, -128);
  JournalManifest wide_manifest = kManifest;
  wide_manifest.site_count = 200;
  EXPECT_EQ(resume_with("content_site_wide",
                        {CampaignJournal::encode_round(0, wide)},
                        wide_manifest),
            JournalStatus::kCorrupt);

  // A site table of any other size than the deployment's, even one whose
  // ids all fit it: the engine writes one tally per deployment site.
  for (const std::size_t sites : {std::size_t{1}, std::size_t{3}}) {
    RoundResult other;
    other.raw_replies_per_site.assign(sites, 1);
    other.map.set(a, 0, 9.5f);
    EXPECT_EQ(resume_with("content_site_table",
                          {CampaignJournal::encode_round(0, other)}),
              JournalStatus::kCorrupt)
        << sites << " sites";
  }

  // A block listed twice in the map section, then in the RTT section.
  // The controls show the forged frames themselves decode: B retargeted
  // to a fresh block in both sections (out of block order), and the RTT
  // section's A and B swapped (the two sections in different orders, as
  // the hash-order encoder was free to write them).
  const std::string retargeted = retarget(retarget(ok, b, c, 0), b, c, 0);
  EXPECT_EQ(resume_with("content_retarget", {retargeted}),
            JournalStatus::kResumed);
  const std::string swapped =
      retarget(retarget(retarget(ok, a, c, 1), b, a, 1), c, b, 0);
  EXPECT_EQ(resume_with("content_swapped", {swapped}),
            JournalStatus::kResumed);
  EXPECT_EQ(resume_with("content_dup_map", {retarget(ok, b, a, 0)}),
            JournalStatus::kCorrupt);
  EXPECT_EQ(resume_with("content_dup_rtt", {retarget(ok, b, a, 1)}),
            JournalStatus::kCorrupt);

  // An RTT for a block the map does not hold.
  EXPECT_EQ(resume_with("content_rtt_unmapped", {retarget(ok, b, c, 1)}),
            JournalStatus::kCorrupt);

  // An RTT no catchment CSV could carry: negative, NaN or infinite.
  for (const float rtt : {-1.0f, std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    EXPECT_EQ(resume_with("content_rtt_value", {round_with(0, rtt)}),
              JournalStatus::kCorrupt)
        << "rtt " << rtt;
  }
}

// Size and CRC-32 of encode_round over the hand-made round of
// export_pin_round.hpp (four /8 pages, nine sites) and over an empty
// map; append_round must write exactly frame(encode_round), and the
// record must resume to the same round. Never edit these literals to
// make a change pass.
TEST(Journal, PageWalkEncodingIsPinned) {
  const RoundResult round = export_pin::pinned_export_round(false);
  const std::string payload = CampaignJournal::encode_round(5, round);
  EXPECT_EQ(payload.size(), 78'339u);
  EXPECT_EQ(util::crc32(payload), 0x6172ad6cu);

  const std::string path = temp_path("pagewalk");
  const JournalManifest manifest{0x51a7e5, 6, 9};
  {
    CampaignJournal journal;
    ASSERT_EQ(journal.open(path, manifest, false).status,
              JournalStatus::kFresh);
    ASSERT_TRUE(journal.append_round(5, round));
  }
  EXPECT_EQ(read_file(path),
            CampaignJournal::frame(CampaignJournal::encode_manifest(manifest)) +
                CampaignJournal::frame(payload));
  CampaignJournal journal;
  const auto opened = journal.open(path, manifest, true);
  ASSERT_EQ(opened.status, JournalStatus::kResumed);
  ASSERT_EQ(opened.completed.count(5), 1u);
  expect_equal(opened.completed.at(5), round);
  journal.close();
  std::remove(path.c_str());
}

TEST(Journal, EmptyMapEncodingIsPinned) {
  RoundResult empty;
  empty.raw_replies_per_site = {0, 0};
  const std::string payload = CampaignJournal::encode_round(1, empty);
  EXPECT_EQ(payload.size(), 205u);
  EXPECT_EQ(util::crc32(payload), 0xc5f57e85u);
  EXPECT_EQ(resume_with("emptymap", {payload}), JournalStatus::kResumed);
}

TEST(Journal, WithoutResumeOverwrites) {
  const std::string path = temp_path("overwrite");
  journal_with_rounds(path, 3);
  CampaignJournal journal;
  const auto opened = journal.open(path, kManifest, false);
  EXPECT_EQ(opened.status, JournalStatus::kFresh);
  EXPECT_TRUE(opened.completed.empty());
  journal.close();
  CampaignJournal again;
  EXPECT_TRUE(again.open(path, kManifest, true).completed.empty());
  std::remove(path.c_str());
}

// ---- Campaign integration: journal + resume against a real scenario ----

class JournaledCampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 7;
    config.scale = 0.03;
    scenario_ = new analysis::Scenario(config);
    routes_ = scenario_->route(scenario_->broot());
  }
  static void TearDownTestSuite() {
    routes_.reset();
    delete scenario_;
  }

  static Campaign make_campaign() {
    ProbeConfig probe;
    probe.measurement_id = 300;
    Campaign campaign{scenario_->engine(), *routes_};
    campaign.probe(probe).rounds(4).journal(
        temp_path("campaign"), anycast::fingerprint(scenario_->broot()));
    return campaign;
  }

  static analysis::Scenario* scenario_;
  static std::shared_ptr<const bgp::RoutingTable> routes_;
};

analysis::Scenario* JournaledCampaignTest::scenario_ = nullptr;
std::shared_ptr<const bgp::RoutingTable> JournaledCampaignTest::routes_;

TEST_F(JournaledCampaignTest, ResumeSkipsJournaledRoundsBitIdentically) {
  const std::string path = temp_path("campaign");
  auto fresh = make_campaign().run_reported();
  EXPECT_EQ(fresh.journal, JournalStatus::kFresh);
  EXPECT_EQ(fresh.rounds_executed, 4u);

  // Resume with nothing missing: all four rounds load, none run.
  auto resumed = make_campaign().resume().run_reported();
  EXPECT_EQ(resumed.journal, JournalStatus::kResumed);
  EXPECT_EQ(resumed.rounds_loaded, 4u);
  EXPECT_EQ(resumed.rounds_executed, 0u);
  ASSERT_EQ(resumed.results.size(), fresh.results.size());
  for (std::size_t r = 0; r < fresh.results.size(); ++r)
    expect_equal(resumed.results[r], fresh.results[r]);

  // Chop the journal down to two rounds: resume re-runs the missing two
  // and the merged results still match the uninterrupted run.
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() - (full.size() / 3)));
  auto partial = make_campaign().resume().run_reported();
  EXPECT_EQ(partial.journal, JournalStatus::kResumed);
  EXPECT_GT(partial.rounds_executed, 0u);
  EXPECT_LT(partial.rounds_executed, 4u);
  for (std::size_t r = 0; r < fresh.results.size(); ++r)
    expect_equal(partial.results[r], fresh.results[r]);
  std::remove(path.c_str());
}

TEST_F(JournaledCampaignTest, ConcurrentResumeMatchesSequential) {
  const std::string path = temp_path("campaign");
  auto fresh = make_campaign().run_reported();
  // Truncate to force a partial resume, then run it with overlapping
  // rounds: the journaled-set logic must cope with out-of-order
  // completion and still reproduce the sequential results.
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() / 2));
  auto concurrent = make_campaign().resume().concurrency(2).run_reported();
  EXPECT_EQ(concurrent.journal, JournalStatus::kResumed);
  for (std::size_t r = 0; r < fresh.results.size(); ++r)
    expect_equal(concurrent.results[r], fresh.results[r]);
  std::remove(path.c_str());
}

TEST_F(JournaledCampaignTest, RecordNamingASiteTheDeploymentLacksIsCorrupt) {
  // B-Root has two sites. A CRC-valid record whose site table has three
  // and maps a block to site 2 must be refused before anything indexes
  // the deployment's sites by it; the control with B-Root's own two-site
  // table and site 1 resumes.
  const std::string path = temp_path("campaign");
  ASSERT_EQ(scenario_->broot().sites.size(), 2u);
  const net::Block24 block = scenario_->hitlist().entries()[0].block;
  const auto resume_over = [&](std::size_t sites, anycast::SiteId site) {
    RoundResult record;
    record.raw_replies_per_site.assign(sites, 1);
    record.map.set(block, site, 10.0f);
    const Campaign campaign = make_campaign();
    write_file(path, CampaignJournal::frame(CampaignJournal::encode_manifest(
                         JournalManifest{campaign.fingerprint(), 4})) +
                         CampaignJournal::frame(
                             CampaignJournal::encode_round(0, record)));
    return make_campaign().resume().run_reported();
  };
  const CampaignReport forged = resume_over(3, 2);
  EXPECT_EQ(forged.journal, JournalStatus::kCorrupt);
  EXPECT_TRUE(forged.results.empty());
  const CampaignReport control = resume_over(2, 1);
  EXPECT_EQ(control.journal, JournalStatus::kResumed);
  EXPECT_EQ(control.rounds_loaded, 1u);
  std::remove(path.c_str());
}

// encode_round of one measured B-Root round of this fixture's scenario.
// Never edit these literals to make a change pass.
TEST_F(JournaledCampaignTest, MeasuredRoundEncodingIsPinned) {
  ProbeConfig probe;
  probe.measurement_id = 300;
  const RoundResult round = scenario_->engine().run(*routes_, {probe, 0});
  ASSERT_GT(round.map.mapped_blocks(), 1'000u);
  const std::string payload = CampaignJournal::encode_round(0, round);
  EXPECT_EQ(payload.size(), 27'362u);
  EXPECT_EQ(util::crc32(payload), 0xf91838b2u);
}

TEST_F(JournaledCampaignTest, PreSetCancelFlagRunsNothing) {
  const std::string path = temp_path("campaign");
  std::atomic<bool> flag{true};
  auto campaign = make_campaign();
  auto cancelled = campaign.cancel(&flag).run_reported();
  EXPECT_TRUE(cancelled.interrupted);
  EXPECT_EQ(cancelled.journal, JournalStatus::kFresh);
  for (const RoundResult& result : cancelled.results)
    EXPECT_EQ(result.map.blocks_probed, 0u);
  // The manifest-only journal is a valid (empty) prefix: a later resume
  // finishes the campaign as if nothing had happened.
  auto finished = make_campaign().resume().run_reported();
  EXPECT_FALSE(finished.interrupted);
  EXPECT_EQ(finished.journal, JournalStatus::kResumed);
  EXPECT_EQ(finished.rounds_loaded, 0u);
  EXPECT_EQ(finished.rounds_executed, 4u);
  std::remove(path.c_str());
}

TEST_F(JournaledCampaignTest, CancelMidRunLeavesResumablePrefix) {
  const std::string path = temp_path("campaign");
  const auto fresh = make_campaign().run_reported();
  std::remove(path.c_str());

  // Cancel as soon as the first round completes: the in-flight round and
  // its journal append finish, later rounds never start.
  std::atomic<bool> flag{false};
  struct CancelAfterFirst : RoundObserver {
    std::atomic<bool>* flag;
    void on_round_complete(const RoundSpec&, const RoundResult&) override {
      flag->store(true, std::memory_order_relaxed);
    }
  } observer;
  observer.flag = &flag;
  auto campaign = make_campaign();
  const auto cancelled =
      campaign.cancel(&flag).observe(observer).run_reported();
  EXPECT_TRUE(cancelled.interrupted);
  ASSERT_EQ(cancelled.results.size(), 4u);
  expect_equal(cancelled.results[0], fresh.results[0]);
  EXPECT_EQ(cancelled.results[1].map.blocks_probed, 0u);

  // The journal holds exactly the completed prefix; resuming it finishes
  // the campaign bit-identically to the uninterrupted run.
  const auto resumed = make_campaign().resume().run_reported();
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.journal, JournalStatus::kResumed);
  EXPECT_EQ(resumed.rounds_loaded, 1u);
  EXPECT_EQ(resumed.rounds_executed, 3u);
  for (std::size_t r = 0; r < fresh.results.size(); ++r)
    expect_equal(resumed.results[r], fresh.results[r]);
  std::remove(path.c_str());
}

TEST_F(JournaledCampaignTest, CancelMidRunLeavesResumablePrefixConcurrently) {
  const std::string path = temp_path("campaign");
  const auto fresh = make_campaign().run_reported();
  std::remove(path.c_str());

  // Two rounds in flight: the first completion cancels. Whatever was in
  // flight then finishes and is journaled; no later round starts.
  std::atomic<bool> flag{false};
  struct CancelAfterFirst : RoundObserver {
    std::atomic<bool>* flag;
    void on_round_complete(const RoundSpec&, const RoundResult&) override {
      flag->store(true, std::memory_order_relaxed);
    }
  } observer;
  observer.flag = &flag;
  auto campaign = make_campaign();
  const auto cancelled = campaign.concurrency(2)
                             .cancel(&flag)
                             .observe(observer)
                             .run_reported();
  EXPECT_TRUE(cancelled.interrupted);
  ASSERT_EQ(cancelled.results.size(), 4u);
  std::uint32_t completed = 0;
  for (std::size_t r = 0; r < cancelled.results.size(); ++r) {
    if (cancelled.results[r].map.blocks_probed == 0) continue;
    expect_equal(cancelled.results[r], fresh.results[r]);
    ++completed;
  }
  EXPECT_GE(completed, 1u);
  EXPECT_LE(completed, 2u);

  const auto resumed = make_campaign().resume().run_reported();
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.journal, JournalStatus::kResumed);
  EXPECT_EQ(resumed.rounds_loaded, completed);
  EXPECT_EQ(resumed.rounds_executed, 4u - completed);
  for (std::size_t r = 0; r < fresh.results.size(); ++r)
    expect_equal(resumed.results[r], fresh.results[r]);
  std::remove(path.c_str());
}

TEST_F(JournaledCampaignTest, ChangedConfigRefusesResume) {
  const std::string path = temp_path("campaign");
  make_campaign().run_reported();
  auto refused = make_campaign().threads(2).resume().run_reported();
  EXPECT_EQ(refused.journal, JournalStatus::kFingerprintMismatch);
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(refused.results.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vp::core
