// Byte goldens for the probe path: the exact request and reply frames,
// and the exact cleaned rounds, committed as CRC-32 digests.
//
// FrameDigest builds every probe request of rounds 0-2 the way the probe
// engine does (tx time and ICMP sequence from the probe's index in the
// round's probe order), hands it to the simulated Internet, and chains a
// CRC-32 over every request frame, every reply frame (one per delivered
// copy) and every delivery's (site, arrival). RoundMatrix runs the engine
// over {B-Root, Tangled} x {clean, FaultPlan::from_seed(31) with two
// retries} at threads {1, 3, 8} and digests the catchment CSV, every
// CleaningStats and FaultStats field and the raw per-site reply counts.
//
// Both goldens were written by the byte-at-a-time serializer, before the
// packet builders switched to direct stores and the checksum to 32-bit
// words. Any drift is a bug in the probe path, not a reason to rewrite
// them. VP_UPDATE_GOLDEN=1 rewrites the files (only for a deliberate
// change of the simulated Internet, explained in its commit).
//
// ProbePathPins holds two literal CRC-32 pins on a scale-0.05 world: the
// ground-truth site of every block in rounds 0-7 under two flip models
// sharing one set of routing tables, and every forward-loss draw of a
// seeded fault plan. Never edit those literals to make a change pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/dataset_io.hpp"
#include "core/probe_engine.hpp"
#include "net/packet.hpp"
#include "sim/fault_injector.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"

#ifndef VP_GOLDEN_DIR
#error "build must define VP_GOLDEN_DIR"
#endif

namespace vp {
namespace {

class ProbeGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The default scenario: ~120k blocks over three /8 map pages.
    scenario_ = new analysis::Scenario(analysis::ScenarioConfig{});
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const analysis::Scenario& scenario() { return *scenario_; }

 private:
  static analysis::Scenario* scenario_;
};

analysis::Scenario* ProbeGoldenTest::scenario_ = nullptr;

/// Compares `actual` with the committed golden `name`, or rewrites it
/// under VP_UPDATE_GOLDEN=1.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string{VP_GOLDEN_DIR} + "/" + name;
  if (std::getenv("VP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), actual) << "probe bytes drifted from " << path;
}

template <typename T>
std::uint32_t crc_value(const T& value, std::uint32_t crc) {
  return util::crc32(&value, sizeof value, crc);
}

std::string hex(std::uint32_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

TEST_F(ProbeGoldenTest, FrameDigest) {
  const analysis::Scenario& s = scenario();
  const anycast::Deployment& deployment = s.tangled();
  const auto routes = s.route(deployment);
  const sim::InternetSim& internet = s.internet();
  const auto entries = s.hitlist().entries();
  const core::ProbeConfig config;
  // A late copy arrives kLateExtraMinutes after its RTT; no other delay
  // in a fault-free round comes near it.
  const util::SimTime late_after =
      util::SimTime::from_minutes(sim::kLateExtraMinutes);

  std::ostringstream digest;
  std::vector<std::uint32_t> order;
  std::vector<std::uint8_t> request;
  std::vector<std::uint8_t> reply;
  std::vector<sim::DeliveryView> deliveries;
  sim::DataplaneTally tally;
  std::uint64_t duplicates = 0, heavy = 0, aliases = 0, late = 0,
                flappy = 0;
  for (std::uint32_t round = 0; round < 3; ++round) {
    const std::uint32_t measurement_id = 5100 + round;
    const util::SimTime start = util::SimTime::from_minutes(30.0 * round);
    const util::SimTime gap =
        util::SimTime::from_seconds(1.0 / core::kProbeRatePps);
    s.hitlist().probe_order_into(
        util::hash_combine(config.order_seed, round), order);
    std::uint32_t request_crc = 0, reply_crc = 0, delivery_crc = 0;
    std::uint64_t reply_frames = 0;
    for (std::size_t index = 0; index < order.size(); ++index) {
      const hitlist::Entry& entry = entries[order[index]];
      const util::SimTime tx =
          start + util::SimTime{gap.usec * static_cast<std::int64_t>(index)};
      net::ProbePayload payload;
      payload.measurement_id = measurement_id;
      payload.tx_time_usec = tx.usec;
      payload.original_target = entry.target;
      net::build_echo_request_into(
          request, deployment.measurement_address, entry.target,
          static_cast<std::uint16_t>(measurement_id & 0xffff),
          static_cast<std::uint16_t>(index & 0xffff), payload);
      request_crc = util::crc32(request.data(), request.size(), request_crc);
      internet.probe_into(*routes, request, tx, round, deliveries, reply,
                          tally);
      if (deliveries.empty()) continue;

      for (const sim::DeliveryView& d : deliveries) {
        reply_crc = util::crc32(reply.data(), reply.size(), reply_crc);
        delivery_crc = crc_value(d.site, delivery_crc);
        delivery_crc = crc_value(d.arrival.usec, delivery_crc);
        ++reply_frames;
        if (d.arrival.usec - tx.usec >= late_after.usec) ++late;
      }
      if (deliveries.size() == 2) ++duplicates;
      if (deliveries.size() > 2) ++heavy;
      const auto parsed = net::parse_reply_view(reply);
      ASSERT_TRUE(parsed.has_value());
      if (parsed->ip.source != entry.target) ++aliases;
      if (internet.flips().is_flappy(*routes, entry.block)) ++flappy;
    }
    digest << "round " << round << " requests " << order.size() << " "
           << hex(request_crc) << " replies " << reply_frames << " "
           << hex(reply_crc) << " deliveries " << hex(delivery_crc) << "\n";
  }
  // The digest must cover every reply shape the cleaner deals with.
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(heavy, 0u);
  EXPECT_GT(aliases, 0u);
  EXPECT_GT(late, 0u);
  EXPECT_GT(flappy, 0u);
  expect_golden("probe_frames_v1.txt", digest.str());
}

/// One CRC over everything a round reports: the catchment CSV, every
/// CleaningStats and FaultStats field and the raw per-site reply counts.
std::uint32_t round_crc(const core::RoundResult& result,
                        const anycast::Deployment& deployment) {
  std::ostringstream csv;
  core::write_catchment_csv(csv, result, deployment);
  std::uint32_t crc = util::crc32(csv.str());
  const core::CleaningStats& c = result.map.cleaning;
  for (const std::uint64_t v :
       {c.raw_replies, c.malformed, c.wrong_id, c.unsolicited, c.duplicates,
        c.late, c.kept})
    crc = crc_value(v, crc);
  const sim::FaultStats& f = result.faults;
  for (const std::uint64_t v :
       {f.probes_lost, f.replies_generated, f.replies_lost, f.rate_limited,
        f.outage_drops, f.withdrawn, f.diverted, f.delayed, f.retries,
        f.recovered})
    crc = crc_value(v, crc);
  for (const std::uint64_t v : result.raw_replies_per_site)
    crc = crc_value(v, crc);
  return crc;
}

TEST_F(ProbeGoldenTest, RoundMatrix) {
  const analysis::Scenario& s = scenario();
  const sim::FaultInjector faults{sim::FaultPlan::from_seed(31)};
  std::ostringstream digest;
  for (const bool tangled : {false, true}) {
    const anycast::Deployment& deployment = tangled ? s.tangled() : s.broot();
    const auto routes = s.route(deployment);
    for (const bool faulted : {false, true}) {
      core::RoundSpec spec;
      spec.probe.measurement_id = 6100;
      spec.round = 2;
      spec.start = util::SimTime::from_minutes(90);
      if (faulted) {
        spec.faults = &faults;
        spec.probe.max_retries = 2;
      }
      const std::string label = std::string{tangled ? "tangled" : "broot"} +
                                (faulted ? " faulted" : " clean");
      std::uint32_t first = 0;
      for (const unsigned threads : {1u, 3u, 8u}) {
        spec.threads = threads;
        const core::RoundResult result = s.engine().run(*routes, spec);
        const std::uint32_t crc = round_crc(result, deployment);
        if (threads == 1) {
          first = crc;
          EXPECT_EQ(result.faults.retries > 0, faulted) << label;
          EXPECT_EQ(result.faults.replies_dropped() > 0, faulted) << label;
        } else {
          EXPECT_EQ(crc, first) << label << " at " << threads << " threads";
        }
      }
      digest << label << " " << hex(first) << "\n";
    }
  }
  expect_golden("round_matrix_v1.txt", digest.str());
}

/// A ~6k-block world: small enough to walk every block in every round.
const analysis::Scenario& small_scenario() {
  static const analysis::Scenario scenario{[] {
    analysis::ScenarioConfig config;
    config.scale = 0.05;
    return config;
  }()};
  return scenario;
}

// The ground truth replies are routed by: site_in_round over every block
// x rounds 0-7 on both deployments, under the scenario's flip model and
// under a second one (another seed, a high transient rate) reading the
// same routing tables.
TEST(ProbePathPins, GroundTruthSites) {
  const analysis::Scenario& s = small_scenario();
  const sim::FlipModel other{sim::FlipConfig{99, 0.2}};
  std::ostringstream digest;
  for (const sim::FlipModel* flips : {&s.internet().flips(), &other}) {
    const std::string model = flips == &other ? "seed99" : "scenario";
    std::uint64_t flappy = 0, transient = 0;
    for (const bool tangled : {false, true}) {
      const auto routes = s.route(tangled ? s.tangled() : s.broot());
      std::uint32_t crc = 0;
      for (const topology::BlockInfo& info : s.topo().blocks()) {
        const bool is_flappy = flips->is_flappy(*routes, info.block);
        flappy += is_flappy ? 1 : 0;
        for (std::uint32_t round = 0; round < 8; ++round) {
          const anycast::SiteId site =
              flips->site_in_round(*routes, info.block, round);
          crc = crc_value(site, crc);
          if (!is_flappy && site != routes->site_for_block(info)) ++transient;
        }
      }
      digest << (tangled ? "tangled " : "broot ") << model << " " << hex(crc)
             << "\n";
    }
    EXPECT_GT(flappy, 0u) << model;
    EXPECT_GT(transient, 0u) << model;
  }
  EXPECT_EQ(digest.str(),
            "broot scenario 20bb6a75\n"
            "tangled scenario 12e76730\n"
            "broot seed99 f63f2f92\n"
            "tangled seed99 dc7cb101\n");
}

// Forward-path loss: drops_probe over every hitlist target x attempts
// {0, 1, 2} x rounds {0, 1} of one seeded plan.
TEST(ProbePathPins, ProbeLossDraws) {
  const analysis::Scenario& s = small_scenario();
  const sim::FaultInjector faults{sim::FaultPlan::from_seed(31)};
  std::uint32_t crc = 0;
  std::uint64_t dropped = 0;
  for (std::uint32_t round = 0; round < 2; ++round) {
    for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
      for (const hitlist::Entry& entry : s.hitlist().entries()) {
        const std::uint8_t drop =
            faults.drops_probe(entry.target, round, attempt) ? 1 : 0;
        crc = crc_value(drop, crc);
        dropped += drop;
      }
    }
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(hex(crc), "1a77dc1d");
}

}  // namespace
}  // namespace vp
