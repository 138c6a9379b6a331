#include <gtest/gtest.h>

#include <unordered_set>

#include "hitlist/hitlist.hpp"
#include "sim/responsiveness.hpp"
#include "topology/generator.hpp"

namespace vp::hitlist {
namespace {

class HitlistTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topology::TopologyConfig config;
    config.seed = 55;
    config.target_blocks = 8'000;
    topo_ = new topology::Topology(topology::generate_topology(config));
    model_ = new sim::ResponsivenessModel(*topo_, {});
    hitlist_ = new Hitlist(Hitlist::build(*topo_, *model_));
  }
  static void TearDownTestSuite() {
    delete hitlist_;
    delete model_;
    delete topo_;
  }
  static const topology::Topology& topo() { return *topo_; }
  static const sim::ResponsivenessModel& model() { return *model_; }
  static const Hitlist& hitlist() { return *hitlist_; }

 private:
  static const topology::Topology* topo_;
  static const sim::ResponsivenessModel* model_;
  static const Hitlist* hitlist_;
};

const topology::Topology* HitlistTest::topo_ = nullptr;
const sim::ResponsivenessModel* HitlistTest::model_ = nullptr;
const Hitlist* HitlistTest::hitlist_ = nullptr;

TEST_F(HitlistTest, CoversMostAllocatedBlocks) {
  const double coverage = static_cast<double>(hitlist().size()) /
                          static_cast<double>(topo().block_count());
  EXPECT_GT(coverage, 0.94);
  EXPECT_LT(coverage, 1.0);  // some blocks are missing by design
}

TEST_F(HitlistTest, OneEntryPerBlockInsideThatBlock) {
  std::unordered_set<std::uint32_t> seen;
  for (const Entry& entry : hitlist().entries()) {
    EXPECT_TRUE(seen.insert(entry.block.index()).second);
    EXPECT_EQ(net::Block24::containing(entry.target), entry.block);
    const std::uint8_t host =
        static_cast<std::uint8_t>(entry.target.value() & 0xff);
    EXPECT_GE(host, 1);
    EXPECT_LE(host, 250);
  }
}

TEST_F(HitlistTest, MostEntriesPointAtTheLiveHost) {
  std::size_t fresh = 0;
  for (const Entry& entry : hitlist().entries()) {
    if (entry.target ==
        entry.block.address(model().responsive_host(entry.block)))
      ++fresh;
  }
  const double fraction =
      static_cast<double>(fresh) / static_cast<double>(hitlist().size());
  // kStaleEntryRate is 7%.
  EXPECT_GT(fraction, 0.87);
  EXPECT_LT(fraction, 0.95);
}

std::vector<std::uint32_t> order_for(const Hitlist& hitlist,
                                     std::uint64_t round_seed) {
  std::vector<std::uint32_t> order;
  hitlist.probe_order_into(round_seed, order);
  return order;
}

TEST_F(HitlistTest, ProbeOrderIsAPermutation) {
  const auto order = order_for(hitlist(), 1);
  ASSERT_EQ(order.size(), hitlist().size());
  std::vector<bool> seen(order.size(), false);
  for (const std::uint32_t index : order) {
    ASSERT_LT(index, order.size());
    EXPECT_FALSE(seen[index]);
    seen[index] = true;
  }
}

TEST_F(HitlistTest, ProbeOrderVariesBySeedButIsStable) {
  const auto a1 = order_for(hitlist(), 1);
  const auto b = order_for(hitlist(), 2);
  EXPECT_NE(a1, b);
  // A reused buffer (the engine's cross-round arena) gets the identical
  // permutation, whatever it held before.
  std::vector<std::uint32_t> reused = b;
  reused.push_back(7);
  hitlist().probe_order_into(1, reused);
  EXPECT_EQ(reused, a1);
}

TEST_F(HitlistTest, ProbeOrderIsNotSequential) {
  const auto order = order_for(hitlist(), 3);
  std::size_t sequential = 0;
  for (std::size_t i = 1; i < order.size(); ++i)
    if (order[i] == order[i - 1] + 1) ++sequential;
  // A random permutation has ~1 ascending-adjacent pair in expectation.
  EXPECT_LT(sequential, order.size() / 100);
}

TEST_F(HitlistTest, BuildIsDeterministic) {
  const Hitlist again = Hitlist::build(topo(), model());
  ASSERT_EQ(again.size(), hitlist().size());
  for (std::size_t i = 0; i < again.size(); i += 37) {
    EXPECT_EQ(again.entries()[i].block, hitlist().entries()[i].block);
    EXPECT_EQ(again.entries()[i].target, hitlist().entries()[i].target);
  }
}

}  // namespace
}  // namespace vp::hitlist
