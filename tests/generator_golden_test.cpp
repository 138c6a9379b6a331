// Golden-stats regression test for the scale generator: a fixed-seed
// topology's summary statistics (AS counts, link count, per-tier degree
// histogram, hitlist CRC, structural digest) are compared line for line
// against a committed golden file. Any change to the generator's draw
// sequence — a reordered draw, a new knob consuming entropy, a changed
// phase tag — shows up as a diff here before it silently invalidates
// every seeded experiment.
//
// Regenerate after an *intentional* change with:
//   VP_UPDATE_GOLDEN=1 ./generator_golden_test
// and commit the updated tests/golden/scale_gen_seed42.txt with a note
// in the PR about why the stream moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "hitlist/hitlist.hpp"
#include "sim/internet.hpp"
#include "topology/scale_generator.hpp"
#include "topology/topo_io.hpp"

#ifndef VP_GOLDEN_DIR
#error "build must define VP_GOLDEN_DIR"
#endif

namespace vp {
namespace {

std::string golden_path() {
  return std::string{VP_GOLDEN_DIR} + "/scale_gen_seed42.txt";
}

std::string build_summary() {
  topology::ScaleConfig config;  // defaults: seed 42, 10k ASes, 130k blocks
  config.as_count = 1'200;
  config.target_blocks = 15'000;
  const topology::Topology topo = generate_scale_topology(config);

  std::size_t tier_counts[3] = {0, 0, 0};
  std::size_t link_records = 0;
  // Degree histogram per tier, bucketed by floor(log2(degree + 1)).
  constexpr std::size_t kBuckets = 12;
  std::size_t histogram[3][kBuckets] = {};
  for (topology::AsId v = 0; v < topo.as_count(); ++v) {
    const auto& node = topo.as_at(v);
    const auto tier = static_cast<std::size_t>(node.tier);
    tier_counts[tier]++;
    link_records += node.links.size();
    std::size_t bucket = 0;
    for (std::size_t d = node.links.size() + 1; d > 1; d >>= 1) ++bucket;
    histogram[tier][std::min(bucket, kBuckets - 1)]++;
  }

  sim::InternetConfig internet_config;
  const sim::InternetSim internet{topo, internet_config};
  const auto hitlist =
      hitlist::Hitlist::build(topo, internet.responsiveness(), {}, 1);

  std::ostringstream out;
  out << "as_count " << topo.as_count() << "\n";
  out << "transit " << tier_counts[0] << "\n";
  out << "regional " << tier_counts[1] << "\n";
  out << "stub " << tier_counts[2] << "\n";
  out << "links " << link_records / 2 << "\n";
  out << "prefixes " << topo.announced_prefixes().size() << "\n";
  out << "blocks " << topo.block_count() << "\n";
  out << "geo_blocks " << topo.geo_count() << "\n";
  for (int tier = 0; tier < 3; ++tier) {
    out << "degree_hist_" << tier;
    for (std::size_t b = 0; b < kBuckets; ++b)
      out << " " << histogram[tier][b];
    out << "\n";
  }
  out << "hitlist_size " << hitlist.size() << "\n";
  out << std::hex;
  out << "hitlist_crc32 " << hitlist.crc32() << "\n";
  out << "structural_digest " << topology::structural_digest(topo) << "\n";
  return out.str();
}

TEST(GeneratorGolden, SummaryMatchesCommittedGolden) {
  const std::string summary = build_summary();
  if (std::getenv("VP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{golden_path(), std::ios::binary | std::ios::trunc};
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << summary;
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }
  std::ifstream in{golden_path(), std::ios::binary};
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << " (run with VP_UPDATE_GOLDEN=1 to create it)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), summary)
      << "generator output drifted from the committed golden stats; if "
         "intentional, regenerate with VP_UPDATE_GOLDEN=1 and explain the "
         "stream change in the PR";
}

}  // namespace
}  // namespace vp
