// Paper-scale smoke test (ctest label: scale): generate a 500k-AS / 2M
// block Internet, round-trip it through a topology image, route a
// generated anycast deployment over it, and build the hitlist — end to
// end, in one process. This is the memory acceptance test for the SoA
// routing table and arena RIB allocation: before those,
// RoutingEngine::full() at this size did not fit the CI container.
#include <gtest/gtest.h>

#include <queue>
#include <string>
#include <vector>

#include "anycast/deployment.hpp"
#include "bgp/routing_engine.hpp"
#include "hitlist/hitlist.hpp"
#include "sim/internet.hpp"
#include "topology/scale_generator.hpp"
#include "topology/topo_io.hpp"

namespace vp {
namespace {

TEST(ScaleSmoke, HalfMillionAsInternetEndToEnd) {
  topology::ScaleConfig config;
  config.seed = 42;
  config.as_count = 500'000;
  config.target_blocks = 2'000'000;
  const topology::Topology topo = generate_scale_topology(config);
  ASSERT_EQ(topo.as_count(), 500'000u);
  EXPECT_NEAR(static_cast<double>(topo.block_count()), 2e6, 4e5);

  // Connectivity sweep over the full graph.
  std::vector<bool> seen(topo.as_count(), false);
  std::queue<topology::AsId> frontier;
  frontier.push(0);
  seen[0] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const topology::AsId v = frontier.front();
    frontier.pop();
    for (const auto& link : topo.as_at(v).links) {
      if (!seen[link.neighbor]) {
        seen[link.neighbor] = true;
        ++reached;
        frontier.push(link.neighbor);
      }
    }
  }
  EXPECT_EQ(reached, topo.as_count());

  // The paper-scale image round-trips: the loader rebuilds the same
  // structure, and writing it out again gives the same bytes.
  {
    const std::string bytes = topology::serialize_topology(topo);
    topology::Topology restored;
    std::string error;
    ASSERT_TRUE(topology::deserialize_topology(bytes, restored, error))
        << error;
    EXPECT_EQ(topology::structural_digest(restored),
              topology::structural_digest(topo));
    EXPECT_TRUE(topology::serialize_topology(restored) == bytes);
  }

  const auto deployment = anycast::make_generated(topo, 9, config.seed);
  ASSERT_EQ(deployment.sites.size(), 9u);
  bgp::RoutingEngine engine{topo, deployment};
  EXPECT_TRUE(engine.incremental_supported());
  const auto routes = engine.full();
  ASSERT_NE(routes, nullptr);

  // Every block resolves to a real site: the graph is connected and
  // valley-free export always leaves stubs a provider path to the core.
  std::size_t mapped = 0;
  for (const auto& info : topo.blocks())
    if (routes->site_for_block(info) != anycast::kUnknownSite) ++mapped;
  EXPECT_EQ(mapped, topo.block_count());

  sim::InternetConfig internet_config;
  const sim::InternetSim internet{topo, internet_config};
  const auto hitlist = hitlist::Hitlist::build(
      topo, internet.responsiveness(), {}, /*threads=*/0);
  // ~2% of blocks are deliberately missing from the hitlist.
  EXPECT_NEAR(static_cast<double>(hitlist.size()),
              0.98 * static_cast<double>(topo.block_count()),
              0.01 * static_cast<double>(topo.block_count()));
}

}  // namespace
}  // namespace vp
