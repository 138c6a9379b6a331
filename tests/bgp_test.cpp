#include <gtest/gtest.h>

#include "anycast/deployment.hpp"
#include "bgp/routing.hpp"
#include "bgp/routing_engine.hpp"
#include "topology/generator.hpp"
#include "topology/topology.hpp"

namespace vp::bgp {
namespace {

/// One-shot engine session; the table copy keeps the engine-owned
/// deployment alive through its shared_ptr members.
RoutingTable route(const topology::Topology& topo,
                   const anycast::Deployment& deployment,
                   const RoutingOptions& options = {}) {
  return *RoutingEngine{topo, deployment, options}.full();
}

using topology::AsId;
using topology::AsNumber;
using topology::AsTier;
using topology::Pop;
using topology::Relationship;
using topology::Topology;

constexpr std::uint16_t kNoCare = 0;

Pop pop_at(const char* center) {
  const std::uint16_t id = topology::center_by_name(center);
  return Pop{id, geo::world_centers()[id].location};
}

AsId add_as(Topology& topo, std::uint32_t asn, AsTier tier,
            std::initializer_list<const char*> centers) {
  topology::AsNode node;
  node.asn = AsNumber{asn};
  node.tier = tier;
  node.name = "AS" + std::to_string(asn);
  for (const char* c : centers) node.pops.push_back(pop_at(c));
  return topo.add_as(std::move(node));
}

/// A hand-built mini Internet with a fully known routing outcome:
///
///        T1 ---peer--- T2 ---peer--- T3 ---peer--- T4(*)
///        |             |             (T4 only peers T3)
///   (A) LAX        (B) MIA
///        |             |
///        A             B          C = customer of T1 and T2 (tie)
///                                 S = customer of C
///                                 D = two PoPs, customer of T1 (at LA)
///                                     and T2 (at Miami) -> hot potato
struct MiniInternet {
  Topology topo;
  AsId a, b, t1, t2, t3, t4, c, s, d;
  anycast::Deployment deployment;

  MiniInternet() {
    a = add_as(topo, 100, AsTier::kRegional, {"Los Angeles"});
    b = add_as(topo, 200, AsTier::kRegional, {"Miami"});
    t1 = add_as(topo, 300, AsTier::kTransit, {"Los Angeles", "New York"});
    t2 = add_as(topo, 400, AsTier::kTransit, {"Miami", "New York"});
    t3 = add_as(topo, 500, AsTier::kTransit, {"London"});
    t4 = add_as(topo, 600, AsTier::kTransit, {"Paris"});
    c = add_as(topo, 700, AsTier::kRegional, {"Chicago"});
    s = add_as(topo, 800, AsTier::kStub, {"Chicago"});
    d = add_as(topo, 900, AsTier::kRegional, {"Los Angeles", "Miami"});

    topo.link(a, kNoCare, t1, 0, Relationship::kProvider);
    topo.link(b, kNoCare, t2, 0, Relationship::kProvider);
    topo.link(t1, 1, t2, 1, Relationship::kPeer);
    topo.link(t2, 1, t3, 0, Relationship::kPeer);
    topo.link(t1, 1, t3, 0, Relationship::kPeer);
    topo.link(t3, 0, t4, 0, Relationship::kPeer);
    topo.link(c, 0, t1, 1, Relationship::kProvider);
    topo.link(c, 0, t2, 1, Relationship::kProvider);
    topo.link(s, 0, c, 0, Relationship::kProvider);
    topo.link(d, 0, t1, 0, Relationship::kProvider);  // at LA
    topo.link(d, 1, t2, 0, Relationship::kProvider);  // at Miami

    // Blocks for D, one on each PoP (hot-potato check).
    const std::uint32_t p = topo.announce(d, *net::Prefix::parse("9.9.0.0/23"));
    topo.add_block(net::Block24{0x090900}, d, 0, p);
    topo.add_block(net::Block24{0x090901}, d, 1, p);
    topo.seal();

    deployment.name = "mini";
    deployment.service_prefix = *net::Prefix::parse("192.0.2.0/24");
    deployment.measurement_address = *net::Ipv4Address::parse("192.0.2.1");
    deployment.origin_asn = AsNumber{65000};
    deployment.sites = {
        anycast::AnycastSite{"LAX", AsNumber{100}, pop_at("Los Angeles").location},
        anycast::AnycastSite{"MIA", AsNumber{200}, pop_at("Miami").location},
    };
  }
};

TEST(Routing, OriginUpstreamsGetDirectRoutes) {
  MiniInternet net;
  const RoutingTable routes = route(net.topo, net.deployment);
  EXPECT_EQ(routes.state(net.a).best().site, 0);
  EXPECT_EQ(routes.state(net.a).best().path_len, 1);
  EXPECT_EQ(routes.state(net.a).best().cls, RouteClass::kCustomer);
  EXPECT_EQ(routes.state(net.b).best().site, 1);
}

TEST(Routing, CustomerRouteBeatsShorterPeerRoute) {
  MiniInternet net;
  const RoutingTable routes = route(net.topo, net.deployment);
  // T1 hears LAX from its customer A (len 2) and MIA from peer T2 (len 3);
  // even with LAX prepended +3 the customer route must win.
  auto prepended = net.deployment.with_prepend("LAX", 3);
  const RoutingTable routes2 = route(net.topo, prepended);
  EXPECT_EQ(routes.state(net.t1).best().site, 0);
  EXPECT_EQ(routes2.state(net.t1).best().site, 0);
  EXPECT_EQ(routes2.state(net.t1).best().cls, RouteClass::kCustomer);
}

TEST(Routing, MultihomedCustomerTiesAcrossSites) {
  MiniInternet net;
  const RoutingTable routes = route(net.topo, net.deployment);
  const AsRoutingState& state = routes.state(net.c);
  ASSERT_EQ(state.candidates.size(), 2u);
  EXPECT_TRUE(state.multi_site());
  EXPECT_EQ(state.best().cls, RouteClass::kProvider);
  EXPECT_EQ(state.best().path_len, 3);
}

TEST(Routing, PrependingFlipsLengthSensitiveAses) {
  MiniInternet net;
  // +2 on LAX: C now sees LAX at len 5 vs MIA at len 3 -> MIA.
  auto prepended = net.deployment.with_prepend("LAX", 2);
  const RoutingTable routes = route(net.topo, prepended);
  const AsRoutingState& state = routes.state(net.c);
  ASSERT_TRUE(state.reachable());
  EXPECT_EQ(state.candidates.size(), 1u);
  EXPECT_EQ(state.best().site, 1);
  // And the stub under C follows.
  EXPECT_EQ(routes.state(net.s).best().site, 1);
}

TEST(Routing, PeerRoutesAreNotReExportedToPeers) {
  MiniInternet net;
  const RoutingTable routes = route(net.topo, net.deployment);
  // T3 hears peer routes from T1/T2 (fine), but T4 — whose only neighbor
  // is peer T3 holding a peer-class route — must be unreachable.
  EXPECT_TRUE(routes.state(net.t3).reachable());
  EXPECT_EQ(routes.state(net.t3).best().cls, RouteClass::kPeer);
  EXPECT_FALSE(routes.state(net.t4).reachable());
}

TEST(Routing, StubInheritsProviderChoice) {
  MiniInternet net;
  const RoutingTable routes = route(net.topo, net.deployment);
  const AsRoutingState& c_state = routes.state(net.c);
  const AsRoutingState& s_state = routes.state(net.s);
  ASSERT_TRUE(s_state.reachable());
  EXPECT_EQ(s_state.best().path_len, c_state.best().path_len + 1);
  EXPECT_EQ(s_state.best().cls, RouteClass::kProvider);
}

TEST(Routing, HotPotatoSplitsMultiPopAs) {
  MiniInternet net;
  const RoutingTable routes = route(net.topo, net.deployment);
  // D ties LAX (learned at its LA PoP) and MIA (at its Miami PoP):
  // each PoP exits through the nearest egress.
  ASSERT_TRUE(routes.state(net.d).multi_site());
  EXPECT_EQ(routes.site_for_pop(net.d, 0), 0);  // LA PoP -> LAX
  EXPECT_EQ(routes.site_for_pop(net.d, 1), 1);  // Miami PoP -> MIA
  EXPECT_EQ(routes.site_for_block(net::Block24{0x090900}), 0);
  EXPECT_EQ(routes.site_for_block(net::Block24{0x090901}), 1);
  EXPECT_EQ(routes.distinct_sites(net.d), 2u);
}

TEST(Routing, SiteForUnallocatedBlockIsUnknown) {
  MiniInternet net;
  const RoutingTable routes = route(net.topo, net.deployment);
  EXPECT_EQ(routes.site_for_block(net::Block24{0x334455}),
            anycast::kUnknownSite);
}

TEST(Routing, HiddenSiteDoesNotAttractTraffic) {
  MiniInternet net;
  net.deployment.sites[1].hidden = true;  // hide MIA
  const RoutingTable routes = route(net.topo, net.deployment);
  for (const AsId as : {net.a, net.t1, net.t2, net.c, net.s}) {
    ASSERT_TRUE(routes.state(as).reachable());
    EXPECT_EQ(routes.state(as).best().site, 0)
        << net.topo.as_at(as).name;
  }
  // B itself is only reachable via the LAX announcement now.
  EXPECT_EQ(routes.state(net.b).best().site, 0);
}

TEST(Routing, DisabledSiteSameAsHidden) {
  MiniInternet net;
  net.deployment.sites[0].enabled = false;
  const RoutingTable routes = route(net.topo, net.deployment);
  EXPECT_EQ(routes.state(net.s).best().site, 1);
}

TEST(Routing, LocalPrefOverridesPathLength) {
  MiniInternet net;
  // C prefers routes learned from T1 regardless of prepending.
  net.topo.set_local_pref_bonus(net.c, net.t1, 1);
  auto prepended = net.deployment.with_prepend("LAX", 3);
  const RoutingTable routes = route(net.topo, prepended);
  EXPECT_EQ(routes.state(net.c).best().site, 0)
      << "local-pref must beat the longer AS path";
}

TEST(Routing, TiebreakSaltSelectsAmongEqualRoutes) {
  MiniInternet net;
  // C's two candidates are tied; across many salts both canonical choices
  // must occur (this is the paper's April-vs-May routing shift in §5.5).
  bool saw_lax = false, saw_mia = false;
  for (std::uint64_t salt = 0; salt < 32; ++salt) {
    RoutingOptions options;
    options.tiebreak_salt = salt;
    const RoutingTable routes =
        route(net.topo, net.deployment, options);
    const auto site = routes.state(net.c).best().site;
    saw_lax |= site == 0;
    saw_mia |= site == 1;
  }
  EXPECT_TRUE(saw_lax);
  EXPECT_TRUE(saw_mia);
}

TEST(Routing, DeterministicForSameInputs) {
  MiniInternet net;
  const RoutingTable r1 = route(net.topo, net.deployment);
  const RoutingTable r2 = route(net.topo, net.deployment);
  for (AsId as = 0; as < net.topo.as_count(); ++as) {
    ASSERT_EQ(r1.state(as).reachable(), r2.state(as).reachable());
    if (r1.state(as).reachable()) {
      EXPECT_EQ(r1.state(as).best().site, r2.state(as).best().site);
    }
  }
}

// --- properties on a generated topology ------------------------------------

class GeneratedRoutingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topology::TopologyConfig config;
    config.seed = 21;
    config.target_blocks = 10'000;
    topo_ = new Topology(topology::generate_topology(config));
    deployment_ = new anycast::Deployment(anycast::make_broot(*topo_));
    routes_ = new RoutingTable(route(*topo_, *deployment_));
  }
  static void TearDownTestSuite() {
    delete routes_;
    delete deployment_;
    delete topo_;
  }
  static const Topology& topo() { return *topo_; }
  static const RoutingTable& routes() { return *routes_; }

 private:
  static const Topology* topo_;
  static const anycast::Deployment* deployment_;
  static const RoutingTable* routes_;
};

const Topology* GeneratedRoutingTest::topo_ = nullptr;
const anycast::Deployment* GeneratedRoutingTest::deployment_ = nullptr;
const RoutingTable* GeneratedRoutingTest::routes_ = nullptr;

TEST_F(GeneratedRoutingTest, EveryAsIsReachable) {
  for (AsId as = 0; as < topo().as_count(); ++as) {
    EXPECT_TRUE(routes().state(as).reachable()) << topo().as_at(as).name;
  }
}

TEST_F(GeneratedRoutingTest, EveryBlockHasASite) {
  for (const topology::BlockInfo& info : topo().blocks()) {
    const auto site = routes().site_for_block(info.block);
    EXPECT_GE(site, 0);
    EXPECT_LT(site, 2);
  }
}

TEST_F(GeneratedRoutingTest, BothSitesHaveNonTrivialCatchments) {
  std::size_t lax = 0, mia = 0;
  for (const topology::BlockInfo& info : topo().blocks()) {
    (routes().site_for_block(info.block) == 0 ? lax : mia) += 1;
  }
  const double lax_fraction =
      static_cast<double>(lax) / static_cast<double>(lax + mia);
  // LAX dominates at the calibrated default seed; across arbitrary seeds
  // the transit-cone draw varies, so this test only pins "both sites have
  // substantial catchments" (the default-seed split is asserted by the
  // integration tests and benches).
  EXPECT_GT(lax_fraction, 0.30);
  EXPECT_LT(lax_fraction, 0.97);
}

TEST_F(GeneratedRoutingTest, CandidatesShareClassAndPreference) {
  for (AsId as = 0; as < topo().as_count(); ++as) {
    const auto& state = routes().state(as);
    if (state.candidates.size() < 2) continue;
    const auto& best = state.candidates.front();
    for (const CandidateRoute& cand : state.candidates) {
      EXPECT_EQ(cand.cls, best.cls);
      EXPECT_EQ(cand.local_pref_bonus, best.local_pref_bonus);
      EXPECT_EQ(cand.path_len, best.path_len);
    }
  }
}

// Unclamped, 1 + 255 wraps the origin's path-length byte to 0 and hands
// LAX every AS it should lose. Depths clamp instead: past any path MIA
// offers, a deeper prepend changes no route.
TEST_F(GeneratedRoutingTest, PrependDepthPastTheByteRoutesLikeSixteen) {
  const anycast::Deployment broot = anycast::make_broot(topo());
  const RoutingTable deep = route(topo(), broot.with_prepend("LAX", 255));
  const RoutingTable sixteen = route(topo(), broot.with_prepend("LAX", 16));
  for (AsId as = 0; as < topo().as_count(); ++as) {
    ASSERT_EQ(deep.state(as).best().site, sixteen.state(as).best().site)
        << topo().as_at(as).name;
    for (std::uint16_t pop = 0; pop < topo().as_at(as).pops.size(); ++pop)
      ASSERT_EQ(deep.site_for_pop(as, pop), sixteen.site_for_pop(as, pop))
          << topo().as_at(as).name;
  }
  for (const topology::BlockInfo& info : topo().blocks())
    ASSERT_EQ(deep.site_for_block(info), sixteen.site_for_block(info));
}

TEST_F(GeneratedRoutingTest, PathLengthsAreShort) {
  // A flat Internet: nothing should be more than ~10 AS hops out.
  for (AsId as = 0; as < topo().as_count(); ++as) {
    EXPECT_LE(routes().state(as).best().path_len, 10)
        << topo().as_at(as).name;
  }
}

}  // namespace
}  // namespace vp::bgp
