#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/dataset_io.hpp"
#include "export_pin_round.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"

namespace vp::core {
namespace {

anycast::Deployment test_deployment() {
  topology::Topology empty;
  return anycast::make_broot(empty);
}

RoundResult small_round() {
  RoundResult round;
  round.map.set(net::Block24{0x010203}, 0, 12.34f);
  round.map.set(net::Block24{0x010204}, 1, 256.5f);
  round.map.set(net::Block24{0x0a0b0c}, 0, 99.99f);
  return round;
}

TEST(DatasetIo, CatchmentCsvRoundTrip) {
  const auto deployment = test_deployment();
  const RoundResult round = small_round();
  std::stringstream stream;
  write_catchment_csv(stream, round, deployment);

  const auto loaded = read_catchment_csv(stream, deployment);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->map.mapped_blocks(), round.map.mapped_blocks());
  for (const auto& [block, site] : round.map.entries()) {
    EXPECT_EQ(loaded->map.site_of(block), site);
    EXPECT_NEAR(loaded->map.rtt_of(block), round.map.rtt_of(block), 0.01);
  }
}

/// What append_rtt must reproduce: printf "%.2f" of the widened float.
std::string to_chars_rtt(float rtt) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf,
                                       static_cast<double>(rtt),
                                       std::chars_format::fixed, 2);
  return std::string(buf, end);
}

std::string rtt_text(float rtt) {
  std::string out;
  append_rtt(out, rtt);
  return out;
}

TEST(DatasetIo, RttTextMatchesToCharsOverWholeBinades) {
  // Every float in [0.5, 1), [1, 2), [1024, 2048) and [4096, 8192).
  std::string text;
  for (const float low : {0.5f, 1.0f, 1024.0f, 4096.0f}) {
    const auto first = std::bit_cast<std::uint32_t>(low);
    const auto last = std::bit_cast<std::uint32_t>(low * 2);
    std::uint64_t mismatches = 0;
    for (std::uint32_t bits = first; bits < last; ++bits) {
      const auto rtt = std::bit_cast<float>(bits);
      text.clear();
      append_rtt(text, rtt);
      if (text != to_chars_rtt(rtt) && mismatches++ == 0)
        ADD_FAILURE() << "first mismatch at " << to_chars_rtt(rtt) << " ("
                      << std::hexfloat << rtt << "): " << text;
    }
    EXPECT_EQ(mismatches, 0u) << "binade from " << low;
  }
}

TEST(DatasetIo, RttTextMatchesToCharsAtTheEdges) {
  const float max = std::numeric_limits<float>::max();
  const float limit = static_cast<float>(0x1p53 / 100);  // integer path ends
  std::vector<float> values = {
      // Exact ties at the second decimal: to_chars rounds them to even.
      0.125f, 0.375f, 0.625f, 0.875f, 2.375f, 3.125f, 1000.875f,
      65536.125f, 1048576.375f,
      // Around zero, subnormals included.
      0.0f, std::numeric_limits<float>::denorm_min(), 1e-40f,
      std::numeric_limits<float>::min(), 0.004999f, 0.005f, 0.015f,
      0.995f, 9.995f, 99.995f,
      // Large integral values.
      16777216.0f, 1e10f, 1e12f,
      // Where the integer path hands over to to_chars.
      std::nextafter(limit, 0.0f), limit, std::nextafter(limit, max),
      std::nextafter(max, 0.0f), max,
      // to_chars' own spellings: negatives, -0.0, NaN, infinities.
      -0.0f, -0.125f, -1.5f, -max, std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity()};
  util::Rng rng{2053};
  for (int i = 0; i < 200'000; ++i)
    values.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(rng())));
  for (const float rtt : values)
    EXPECT_EQ(rtt_text(rtt), to_chars_rtt(rtt)) << std::hexfloat << rtt;
  EXPECT_EQ(rtt_text(-0.0f), "-0.00");
  EXPECT_EQ(rtt_text(0.125f), "0.12");
  EXPECT_EQ(rtt_text(2.375f), "2.38");
}

TEST(DatasetIo, CatchmentCsvIsSortedAndStable) {
  const auto deployment = test_deployment();
  std::stringstream a, b;
  write_catchment_csv(a, small_round(), deployment);
  write_catchment_csv(b, small_round(), deployment);
  EXPECT_EQ(a.str(), b.str());
  // Sorted by block: 1.2.3.0 before 1.2.4.0 before 10.11.12.0.
  const std::string text = a.str();
  EXPECT_LT(text.find("1.2.3.0/24"), text.find("1.2.4.0/24"));
  EXPECT_LT(text.find("1.2.4.0/24"), text.find("10.11.12.0/24"));
}

std::string streamed_csv(const RoundResult& round,
                         const anycast::Deployment& deployment) {
  std::ostringstream out;
  write_catchment_csv(out, round, deployment);
  return out.str();
}

// Size and CRC-32 of both catchment writers over the hand-made round of
// export_pin_round.hpp. Never edit these literals to make a change pass:
// a diff here is an export bug.
TEST(DatasetIo, CatchmentCsvBytesArePinned) {
  const auto deployment = export_pin::nine_site_deployment();
  const RoundResult round = export_pin::pinned_export_round(true);
  ASSERT_GE(round.map.mapped_blocks(), 5'000u);
  const std::string csv = catchment_csv(round, deployment);
  EXPECT_EQ(streamed_csv(round, deployment), csv);
  EXPECT_GT(csv.size(), std::size_t{64} << 10);
  EXPECT_EQ(csv.size(), 159'775u);
  EXPECT_EQ(util::crc32(csv), 0x486b7eb0u);
  // The edge rows, spelled out.
  EXPECT_EQ(csv.rfind("block,site,rtt_ms\n0.0.0.0/24,", 0), 0u);
  for (const char* row :
       {"\n10.0.0.0/24,ENS,1.00\n", "\n10.255.255.0/24,CPH-DK,0.00\n",
        "\n127.0.1.0/24,HND,340282346638528859811704183484516925440.00\n",
        "\n127.0.2.0/24,MIA,90071990534144.00\n",
        "\n127.0.3.0/24,IAD,-0.00\n", "\n127.0.4.0/24,GRU,-1.50\n",
        "\n127.0.5.0/24,CPH-DK,nan\n", "\n127.0.6.0/24,SYD,inf\n",
        "\n127.0.7.0/24,CDG,-inf\n", "\n255.0.0.0/24,CPH-DK,9.99\n"})
    EXPECT_NE(csv.find(row), std::string::npos) << row;
  EXPECT_TRUE(csv.ends_with("\n255.255.255.0/24,LHR,250.50\n"));
}

TEST(DatasetIo, EmptyMapCsvIsTheHeader) {
  const auto deployment = export_pin::nine_site_deployment();
  const RoundResult empty;
  EXPECT_EQ(catchment_csv(empty, deployment), "block,site,rtt_ms\n");
  EXPECT_EQ(streamed_csv(empty, deployment), "block,site,rtt_ms\n");
}

TEST(DatasetIo, CatchmentRejectsMalformedInput) {
  const auto deployment = test_deployment();
  const auto reject = [&](const std::string& text) {
    std::stringstream stream{text};
    EXPECT_FALSE(read_catchment_csv(stream, deployment)) << text;
  };
  reject("");                                      // no header
  reject("wrong,header,row\n");                    // bad header
  reject("block,site,rtt_ms\n1.2.3.0/24,LAX\n");   // missing field
  reject("block,site,rtt_ms\n1.2.3.0/24,XXX,1\n"); // unknown site
  reject("block,site,rtt_ms\nnot-a-prefix,LAX,1\n");
  reject("block,site,rtt_ms\n1.2.0.0/16,LAX,1\n");  // not a /24
  reject("block,site,rtt_ms\n1.2.3.0/24,LAX,-5\n"); // negative RTT
  reject("block,site,rtt_ms\n1.2.3.0/24,LAX,1e300\n");  // overflows a float
  reject("block,site,rtt_ms\n1.2.3.0/24,LAX,abc\n");
  reject(
      "block,site,rtt_ms\n1.2.3.0/24,LAX,1\n1.2.3.0/24,MIA,2\n");  // dup
}

TEST(DatasetIo, LoadCsvRoundTrip) {
  analysis::ScenarioConfig config;
  config.scale = 0.03;
  const analysis::Scenario scenario{config};
  const auto load = scenario.broot_load(1);

  std::stringstream stream;
  write_load_csv(stream, load);
  const auto dataset = read_load_csv(stream);
  ASSERT_TRUE(dataset);
  ASSERT_EQ(dataset->blocks.size(), load.blocks().size());
  EXPECT_NEAR(dataset->total_daily_queries, load.total_daily_queries(),
              load.total_daily_queries() * 1e-4);
  for (std::size_t i = 0; i < dataset->blocks.size(); i += 13) {
    EXPECT_EQ(dataset->blocks[i].block, load.blocks()[i].block);
    EXPECT_NEAR(dataset->blocks[i].daily_queries,
                load.blocks()[i].daily_queries,
                load.blocks()[i].daily_queries * 1e-4 + 1e-9);
  }
}

TEST(DatasetIo, LoadCsvRejectsMalformed) {
  const auto reject = [&](const std::string& text) {
    std::stringstream stream{text};
    EXPECT_FALSE(read_load_csv(stream)) << text;
  };
  reject("");
  reject("block,daily_queries,good_fraction\n1.2.3.0/24,-1,0.5\n");
  reject("block,daily_queries,good_fraction\n1.2.3.0/24,10,1.5\n");
  reject("block,daily_queries,good_fraction\n1.2.3.0/24,10\n");
}

TEST(DatasetIo, FileRoundTrip) {
  const auto deployment = test_deployment();
  const RoundResult round = small_round();
  const std::string path = "/tmp/vp_dataset_io_test.csv";
  ASSERT_TRUE(save_catchment(path, round, deployment));
  const auto loaded = load_catchment(path, deployment);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->map.mapped_blocks(), 3u);
  EXPECT_FALSE(load_catchment("/nonexistent/nope.csv", deployment));
  std::remove(path.c_str());
}

TEST(DatasetIo, TruncatedCatchmentFileIsRejectedCleanly) {
  // A partially-written dataset (disk full, killed exporter) must fail
  // the load as a whole, never crash or return a half-read map.
  const auto deployment = test_deployment();
  std::stringstream full;
  write_catchment_csv(full, small_round(), deployment);
  const std::string text = full.str();
  const std::string path = "/tmp/vp_dataset_io_truncated.csv";
  // Chop so the surviving tail is a structurally broken row (losing
  // only trailing digits would still parse): mid-header, mid-prefix of
  // the last row, and right after the last row's site field.
  for (const std::size_t keep :
       {std::size_t{8}, text.rfind('\n', text.size() - 2) + 3,
        text.rfind(',')}) {
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, keep);
    out.close();
    EXPECT_FALSE(load_catchment(path, deployment)) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(DatasetIo, BadMagicIsRejectedCleanly) {
  // Wrong "magic" (header line) — including a load CSV handed to the
  // catchment reader and vice versa — must be a clean nullopt.
  const auto deployment = test_deployment();
  std::stringstream load_header{"block,daily_queries,good_fraction\n"};
  EXPECT_FALSE(read_catchment_csv(load_header, deployment));
  std::stringstream catchment_header{"block,site,rtt_ms\n"};
  EXPECT_FALSE(read_load_csv(catchment_header));
  std::stringstream bom{"\xef\xbb\xbf"
                        "block,site,rtt_ms\n"};
  EXPECT_FALSE(read_catchment_csv(bom, deployment));
  std::stringstream binary{std::string("\x89PNG\r\n\x1a\n\0\0\0", 11)};
  EXPECT_FALSE(read_catchment_csv(binary, deployment));
  EXPECT_FALSE(read_load_csv(binary));
}

TEST(DatasetIo, CorruptedRowsAreRejectedCleanly) {
  const auto deployment = test_deployment();
  const auto reject = [&](const std::string& row) {
    std::stringstream stream{"block,site,rtt_ms\n" + row + "\n"};
    EXPECT_FALSE(read_catchment_csv(stream, deployment)) << row;
  };
  reject("1.2.3.0/24,LAX,1.0,extra-field");
  reject("1.2.3.0/24,LAX,");                       // empty numeric field
  reject(",,");                                    // all fields empty
  reject("1.2.3.0/24,LAX,nan");                    // non-finite RTT
  reject("1.2.3.0/24,LAX,1e");                     // dangling exponent
  reject("999.2.3.0/24,LAX,1.0");                  // octet out of range
  reject(std::string("1.2.3.0/24,L\0X,1.0", 18));  // embedded NUL
  reject("1.2.3.0/24,LAX,1.0\r");                  // CRLF artifacts

  const auto reject_load = [&](const std::string& row) {
    std::stringstream stream{"block,daily_queries,good_fraction\n" + row +
                             "\n"};
    EXPECT_FALSE(read_load_csv(stream)) << row;
  };
  reject_load("1.2.3.0/24,abc,0.5");
  reject_load("1.2.3.0/24,10,0.5,extra");
  reject_load("garbage row with no commas at all");
}

TEST(DatasetIo, LoadCsvRejectsDuplicateBlockRows) {
  // A repeated block row must fail the load: silently accepting it would
  // double-count the block into total_daily_queries.
  std::stringstream dup{
      "block,daily_queries,good_fraction\n"
      "1.2.3.0/24,10,0.5\n"
      "4.5.6.0/24,20,0.5\n"
      "1.2.3.0/24,10,0.5\n"};
  EXPECT_FALSE(read_load_csv(dup));
  std::stringstream unique{
      "block,daily_queries,good_fraction\n"
      "1.2.3.0/24,10,0.5\n"
      "4.5.6.0/24,20,0.5\n"};
  const auto dataset = read_load_csv(unique);
  ASSERT_TRUE(dataset);
  EXPECT_DOUBLE_EQ(dataset->total_daily_queries, 30.0);
}

// ---- randomized round-trip properties ---------------------------------
//
// write_* → read_* must be the identity up to the declared formatting
// precision, and a second write must be byte-identical to the first
// (the formats are fixpoints of their own parse→print cycle).

TEST(DatasetIo, CatchmentRoundTripPropertyRandomized) {
  const auto deployment = test_deployment();
  util::Rng rng{2024};
  // RTT edge values the formatter must survive: zero, sub-precision
  // fractions (round to 0.00), large values, and exact fractions.
  const float edge_rtts[] = {0.0f, 0.004f, 0.25f, 123.456f, 987654.3f};
  for (int iteration = 0; iteration < 40; ++iteration) {
    RoundResult round;
    const int entries = 1 + static_cast<int>(rng.below(60));
    for (int i = 0; i < entries; ++i) {
      const net::Block24 block{static_cast<std::uint32_t>(rng.below(1 << 24))};
      if (round.map.contains(block)) continue;
      const auto site = static_cast<anycast::SiteId>(
          rng.below(deployment.sites.size()));
      const float rtt = rng.chance(0.2)
                            ? edge_rtts[rng.below(std::size(edge_rtts))]
                            : static_cast<float>(rng.uniform(0.0, 500.0));
      // A tenth of the blocks keep the default RTT of 0.
      round.map.set(block, site, rng.chance(0.9) ? rtt : 0.0f);
    }
    std::stringstream first;
    write_catchment_csv(first, round, deployment);
    const auto loaded = read_catchment_csv(first, deployment);
    ASSERT_TRUE(loaded) << "iteration " << iteration;
    ASSERT_EQ(loaded->map.mapped_blocks(), round.map.mapped_blocks());
    for (const auto& [block, site] : round.map.entries()) {
      EXPECT_EQ(loaded->map.site_of(block), site);
      // %.2f rounds to a hundredth.
      EXPECT_NEAR(loaded->map.rtt_of(block), round.map.rtt_of(block), 0.0051)
          << "iteration " << iteration;
    }
    std::stringstream second;
    write_catchment_csv(second, *loaded, deployment);
    EXPECT_EQ(first.str(), second.str()) << "iteration " << iteration;
  }
}

TEST(DatasetIo, LoadRoundTripPropertyRandomized) {
  util::Rng rng{4711};
  const double edge_queries[] = {0.0, 0.25, 1.0, 9.87654e11, 1580.5};
  const float edge_good[] = {0.0f, 1.0f, 0.4567f};
  for (int iteration = 0; iteration < 40; ++iteration) {
    std::vector<dnsload::BlockLoad> blocks;
    std::unordered_set<std::uint32_t> used;
    const int entries = 1 + static_cast<int>(rng.below(60));
    for (int i = 0; i < entries; ++i) {
      const auto index = static_cast<std::uint32_t>(rng.below(1 << 24));
      if (!used.insert(index).second) continue;
      dnsload::BlockLoad bl;
      bl.block = net::Block24{index};
      bl.daily_queries = rng.chance(0.2)
                             ? edge_queries[rng.below(std::size(edge_queries))]
                             : rng.pareto(1.0, 1.2);
      bl.good_fraction = rng.chance(0.2)
                             ? edge_good[rng.below(std::size(edge_good))]
                             : static_cast<float>(rng.uniform());
      blocks.push_back(bl);
    }
    std::stringstream first;
    write_load_csv(first, blocks);
    const auto loaded = read_load_csv(first);
    ASSERT_TRUE(loaded) << "iteration " << iteration;
    ASSERT_EQ(loaded->blocks.size(), blocks.size());
    double expected_total = 0.0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_EQ(loaded->blocks[i].block, blocks[i].block);
      // %.6g keeps six significant digits.
      EXPECT_NEAR(loaded->blocks[i].daily_queries, blocks[i].daily_queries,
                  blocks[i].daily_queries * 1e-5 + 1e-9);
      EXPECT_NEAR(loaded->blocks[i].good_fraction, blocks[i].good_fraction,
                  5.1e-5);
      expected_total += loaded->blocks[i].daily_queries;
    }
    EXPECT_DOUBLE_EQ(loaded->total_daily_queries, expected_total);
    std::stringstream second;
    write_load_csv(second, loaded->blocks);
    EXPECT_EQ(first.str(), second.str()) << "iteration " << iteration;
  }
}

TEST(DatasetIo, MeasuredRoundSurvivesExportImport) {
  analysis::ScenarioConfig config;
  config.scale = 0.03;
  const analysis::Scenario scenario{config};
  const auto routes_ptr = scenario.route(scenario.broot());
  const auto& routes = *routes_ptr;
  ProbeConfig probe;
  probe.measurement_id = 50;
  const auto round = scenario.engine().run(routes, {probe, 0});

  std::stringstream stream;
  write_catchment_csv(stream, round, scenario.broot());
  const auto loaded = read_catchment_csv(stream, scenario.broot());
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->map.mapped_blocks(), round.map.mapped_blocks());
  EXPECT_NEAR(loaded->map.fraction_to(0), round.map.fraction_to(0), 1e-9);
}

}  // namespace
}  // namespace vp::core
