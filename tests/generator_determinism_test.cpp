// Sharded-determinism suite for the scale generator (ISSUE: the emitted
// topology must be bit-identical for every thread count and shard size,
// and any shard must be regenerable in isolation).
//
// The structural digest (topology/topo_io.hpp) is the comparison unit: it
// folds every integer quantity of the graph — ASes, links, prefixes,
// blocks, geo coverage — so two topologies with equal digests are
// structurally identical. Floating-point geo jitter is excluded from the
// digest by design (libm last-ulp variance across hosts), but within one
// process identical draws produce identical doubles, which the
// plan-equality helper checks exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "geo/world.hpp"
#include "hitlist/hitlist.hpp"
#include "sim/internet.hpp"
#include "topology/scale_generator.hpp"
#include "topology/topo_io.hpp"
#include "topology/topology.hpp"
#include "util/atomic_file.hpp"

namespace vp {
namespace {

using topology::AsPlan;
using topology::ScaleConfig;
using topology::ScaleGenerator;
using topology::Topology;

ScaleConfig small_config(std::uint64_t seed) {
  ScaleConfig config;
  config.seed = seed;
  config.as_count = 400;
  config.target_blocks = 3'500;
  config.transit_count = 8;
  return config;
}

void expect_plans_equal(const AsPlan& a, const AsPlan& b) {
  EXPECT_EQ(a.node.asn.value, b.node.asn.value);
  EXPECT_EQ(a.node.tier, b.node.tier);
  EXPECT_EQ(a.node.name, b.node.name);
  EXPECT_EQ(a.node.load_balanced, b.node.load_balanced);
  EXPECT_EQ(a.node.multipath, b.node.multipath);
  EXPECT_EQ(a.node.flap_scale, b.node.flap_scale);
  EXPECT_EQ(a.node.icmp_response_scale, b.node.icmp_response_scale);
  ASSERT_EQ(a.node.pops.size(), b.node.pops.size());
  for (std::size_t p = 0; p < a.node.pops.size(); ++p) {
    EXPECT_EQ(a.node.pops[p].center_id, b.node.pops[p].center_id);
    // Same process, same draws: the jittered coordinates must be
    // bit-equal, not merely close.
    EXPECT_EQ(a.node.pops[p].location.lat, b.node.pops[p].location.lat);
    EXPECT_EQ(a.node.pops[p].location.lon, b.node.pops[p].location.lon);
  }
  EXPECT_EQ(a.prefix_lens, b.prefix_lens);
  EXPECT_EQ(a.block_demand, b.block_demand);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t e = 0; e < a.edges.size(); ++e) {
    EXPECT_EQ(a.edges[e].peer, b.edges[e].peer);
    EXPECT_EQ(a.edges[e].rel, b.edges[e].rel);
    EXPECT_EQ(a.edges[e].local_pop, b.edges[e].local_pop);
    EXPECT_EQ(a.edges[e].remote_pop, b.edges[e].remote_pop);
  }
}

// The tentpole claim: for any thread count and any shard size, the
// generator emits the same topology bit for bit. 10 seeds x {1,2,8}
// threads x {1,16,257} shard sizes, each compared against the
// default-sharding single-thread reference by structural digest.
TEST(GeneratorDeterminism, DigestInvariantAcrossThreadsAndShards) {
  const unsigned kThreads[] = {1, 2, 8};
  const std::uint32_t kShardSizes[] = {1, 16, 257};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ScaleConfig reference = small_config(seed);
    reference.threads = 1;
    const std::uint64_t want =
        topology::structural_digest(generate_scale_topology(reference));
    for (const unsigned threads : kThreads) {
      for (const std::uint32_t shard_size : kShardSizes) {
        ScaleConfig config = small_config(seed);
        config.threads = threads;
        config.shard_size = shard_size;
        EXPECT_EQ(want,
                  topology::structural_digest(generate_scale_topology(config)))
            << "seed " << seed << " threads " << threads << " shard_size "
            << shard_size;
      }
    }
  }
}

// Distinct seeds must actually produce distinct Internets — a digest
// that ignores the seed would make the invariance test above vacuous.
TEST(GeneratorDeterminism, SeedsProduceDistinctTopologies) {
  const std::uint64_t a =
      topology::structural_digest(generate_scale_topology(small_config(1)));
  const std::uint64_t b =
      topology::structural_digest(generate_scale_topology(small_config(2)));
  EXPECT_NE(a, b);
}

// Communication-free shard planning: one shard planned in isolation is
// bit-identical to its slice of a full plan — no draw anywhere depends
// on another shard's draws.
TEST(GeneratorDeterminism, ShardPlannedInIsolationMatchesFullRun) {
  ScaleConfig config = small_config(7);
  config.shard_size = 64;
  const ScaleGenerator gen{config};
  ASSERT_GT(gen.shard_count(), 2u);
  const std::uint32_t shard = gen.shard_count() / 2;
  const std::vector<AsPlan> isolated = gen.plan_shard(shard);
  ASSERT_EQ(isolated.size(), 64u);
  for (std::size_t i = 0; i < isolated.size(); ++i) {
    const auto v = static_cast<topology::AsId>(shard * 64 + i);
    expect_plans_equal(isolated[i], gen.plan_as(v));
  }
}

// The parallel hitlist build must splice to exactly the sequential
// result, entry for entry (paper-scale builds run sharded; every
// downstream consumer assumes the order is the block order).
TEST(GeneratorDeterminism, HitlistIdenticalAcrossThreadCounts) {
  const Topology topo = generate_scale_topology(small_config(3));
  sim::InternetConfig internet_config;
  const sim::InternetSim internet{topo, internet_config};
  const hitlist::HitlistConfig hitlist_config;
  const auto reference = hitlist::Hitlist::build(
      topo, internet.responsiveness(), hitlist_config, 1);
  ASSERT_GT(reference.size(), 1000u);
  for (const unsigned threads : {2u, 8u}) {
    const auto parallel = hitlist::Hitlist::build(
        topo, internet.responsiveness(), hitlist_config, threads);
    ASSERT_EQ(reference.size(), parallel.size()) << threads << " threads";
    EXPECT_EQ(reference.crc32(), parallel.crc32()) << threads << " threads";
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(reference.entries()[i].block, parallel.entries()[i].block);
      ASSERT_EQ(reference.entries()[i].target, parallel.entries()[i].target);
    }
  }
}

// Serialization survives a round trip with the digest intact — what
// `vpctl gen --out` / `--load` rely on.
TEST(GeneratorDeterminism, SerializeRoundTripPreservesDigest) {
  const Topology topo = generate_scale_topology(small_config(5));
  const std::string bytes = topology::serialize_topology(topo);
  Topology restored;
  std::string error;
  ASSERT_TRUE(topology::deserialize_topology(bytes, restored, error))
      << error;
  EXPECT_EQ(topology::structural_digest(topo),
            topology::structural_digest(restored));
  EXPECT_EQ(topo.as_count(), restored.as_count());
  EXPECT_EQ(topo.block_count(), restored.block_count());
}

/// A hand-built topology that sets every field an image stores. Its
/// coordinates are literals: generated ones pass through libm, whose last
/// ulp differs across hosts.
Topology pinned_topology() {
  Topology topo;
  const auto add = [&](std::uint32_t asn, topology::AsTier tier,
                       std::vector<topology::Pop> pops) {
    topology::AsNode node;
    node.asn = topology::AsNumber{asn};
    node.tier = tier;
    node.name = "AS" + std::to_string(asn);
    node.pops = std::move(pops);
    return topo.add_as(std::move(node));
  };
  const topology::AsId transit =
      add(64510, topology::AsTier::kTransit,
          {{3, {52.375, 4.875}}, {7, {40.75, -74.0}}});
  const topology::AsId regional =
      add(64511, topology::AsTier::kRegional, {{5, {48.875, 2.25}}});
  const topology::AsId stub =
      add(64512, topology::AsTier::kStub, {{9, {35.625, 139.75}}});
  topo.as_mutable(transit).load_balanced = true;
  topo.as_mutable(transit).flap_scale = 1.5;
  topo.as_mutable(regional).multipath = true;
  topo.as_mutable(stub).icmp_response_scale = 0.75;
  topo.link(regional, 0, transit, 1, topology::Relationship::kProvider);
  topo.link(stub, 0, regional, 0, topology::Relationship::kProvider);
  topo.link(stub, 0, transit, 0, topology::Relationship::kPeer);
  topo.set_local_pref_bonus(stub, regional, 3);
  const std::uint32_t wide =
      topo.announce(regional, *net::Prefix::parse("10.0.0.0/23"));
  const std::uint32_t narrow =
      topo.announce(stub, *net::Prefix::parse("10.8.0.0/24"));
  topo.add_block(net::Block24{0x0a0000}, regional, 0, wide);
  topo.add_block(net::Block24{0x0a0001}, regional, 0, wide);
  topo.add_block(net::Block24{0x0a0800}, stub, 0, narrow);
  geo::GeoRecord rec;
  rec.location = {48.875, 2.25};
  rec.center_id = 5;
  rec.country[0] = 'F';
  rec.country[1] = 'R';
  rec.continent = geo::Continent::kEurope;
  geo::GeoDatabase& db = topo.geodb_mutable();
  db.prepare_span(net::Block24{0x0a0000}, net::Block24{0x0a0800});
  db.set(net::Block24{0x0a0000}, rec);
  rec.location = {35.625, 139.75};
  rec.center_id = 9;
  rec.country[0] = 'J';
  rec.country[1] = 'P';
  rec.continent = geo::Continent::kAsia;
  db.set(net::Block24{0x0a0800}, rec);
  db.recount();
  topo.seal();
  return topo;
}

// The image's bytes: its size and CRC-32.
TEST(GeneratorDeterminism, SerializedImageIsPinned) {
  const std::string bytes = topology::serialize_topology(pinned_topology());
  EXPECT_EQ(bytes.size(), 414u);
  EXPECT_EQ(util::crc32(bytes), 0x2144df1cu);
  Topology restored;
  std::string error;
  ASSERT_TRUE(topology::deserialize_topology(bytes, restored, error)) << error;
  EXPECT_EQ(topology::serialize_topology(restored), bytes);
}

// An image lists blocks in the order they were added, and nothing makes
// that ascending: a hand-built topology whose blocks went in highest
// first (10.0.2.0/24 left out as a hole) loads back to the same bytes and
// answers every lookup across its span, and one past each end, the same.
TEST(GeneratorDeterminism, DescendingBlockImageRoundTrips) {
  const auto centers = geo::world_centers();
  Topology topo;
  const auto add = [&](std::uint32_t asn, topology::AsTier tier,
                       std::uint16_t pops) {
    topology::AsNode node;
    node.asn = topology::AsNumber{asn};
    node.tier = tier;
    node.name = "AS" + std::to_string(asn);
    for (std::uint16_t c = 0; c < pops; ++c)
      node.pops.push_back(topology::Pop{c, centers[c].location});
    return topo.add_as(std::move(node));
  };
  const topology::AsId transit = add(64520, topology::AsTier::kTransit, 1);
  const topology::AsId stub = add(64521, topology::AsTier::kStub, 2);
  topo.link(stub, 1, transit, 0, topology::Relationship::kProvider);
  const std::uint32_t high =
      topo.announce(stub, *net::Prefix::parse("10.8.0.0/23"));
  const std::uint32_t low =
      topo.announce(transit, *net::Prefix::parse("10.0.0.0/22"));
  topo.add_block(net::Block24{0x0a0801}, stub, 1, high);
  topo.add_block(net::Block24{0x0a0800}, stub, 0, high);
  topo.add_block(net::Block24{0x0a0003}, transit, 0, low);
  topo.add_block(net::Block24{0x0a0001}, transit, 0, low);
  topo.add_block(net::Block24{0x0a0000}, transit, 0, low);
  geo::GeoDatabase& db = topo.geodb_mutable();
  db.prepare_span(net::Block24{0x0a0000}, net::Block24{0x0a0801});
  for (const std::uint32_t b : {0x0a0801u, 0x0a0003u, 0x0a0000u}) {
    const std::uint16_t c = b == 0x0a0801 ? 1 : 0;
    geo::GeoRecord rec;
    rec.location = centers[c].location;
    rec.center_id = c;
    rec.country[0] = centers[c].country[0];
    rec.country[1] = centers[c].country[1];
    rec.continent = centers[c].continent;
    db.set(net::Block24{b}, rec);
  }
  db.recount();
  topo.seal();

  const std::string bytes = topology::serialize_topology(topo);
  Topology restored;
  std::string error;
  ASSERT_TRUE(topology::deserialize_topology(bytes, restored, error)) << error;
  EXPECT_EQ(topology::serialize_topology(restored), bytes);
  ASSERT_EQ(restored.block_count(), 5u);
  EXPECT_EQ(restored.geodb().size(), 3u);
  for (std::uint32_t b = 0x09ffff; b <= 0x0a0802; ++b) {
    const net::Block24 block{b};
    const topology::BlockInfo* want = topo.block_info(block);
    const topology::BlockInfo* got = restored.block_info(block);
    ASSERT_EQ(got == nullptr, want == nullptr) << std::hex << b;
    if (want != nullptr) {
      EXPECT_EQ(got->block, want->block);
      EXPECT_EQ(got->as_id, want->as_id);
      EXPECT_EQ(got->pop, want->pop);
      EXPECT_EQ(got->prefix_index, want->prefix_index);
    }
    const auto want_geo = topo.geodb().lookup(block);
    const auto got_geo = restored.geodb().lookup(block);
    ASSERT_EQ(got_geo.has_value(), want_geo.has_value()) << std::hex << b;
    if (want_geo) {
      EXPECT_EQ(got_geo->center_id, want_geo->center_id);
      EXPECT_EQ(got_geo->location.lat, want_geo->location.lat);
      EXPECT_EQ(got_geo->location.lon, want_geo->location.lon);
      EXPECT_EQ(std::string{got_geo->country}, std::string{want_geo->country});
      EXPECT_EQ(got_geo->continent, want_geo->continent);
    }
  }
  for (const std::uint32_t b : {0x0a0801u, 0x0a0800u, 0x0a0003u, 0x0a0001u,
                                0x0a0000u})
    EXPECT_NE(restored.block_info(net::Block24{b}), nullptr) << std::hex << b;
  EXPECT_EQ(restored.block_info(net::Block24{0x0a0002}), nullptr);
}

// Corruption anywhere in the image must be rejected, not deserialized.
TEST(GeneratorDeterminism, CorruptImageIsRejected) {
  const Topology topo = generate_scale_topology(small_config(5));
  std::string bytes = topology::serialize_topology(topo);
  bytes[bytes.size() / 2] ^= 0x40;
  Topology restored;
  std::string error;
  EXPECT_FALSE(topology::deserialize_topology(bytes, restored, error));
  EXPECT_FALSE(error.empty());
}

// Forged images. The CRC and the structural digest can be recomputed from
// the bytes, so the loader must check every index itself. Each case forges
// one field of a valid image: on a Topology where the build API stores the
// field verbatim (serialize_topology then writes a valid CRC and digest),
// or, for a prefix's origin AS, in the bytes with the CRC re-framed.

constexpr net::Block24 kForgedBlock{0x010000};  // 1.0.0.0/24

/// AS 0: two PoPs, AS 1's provider. AS 1: one PoP; announces 1.0.0.0 as a
/// /prefix_length and homes the geolocated block 1.0.0.0/24 under it.
Topology forgeable(std::uint8_t prefix_length = 24) {
  const auto centers = geo::world_centers();
  Topology topo;
  const auto add = [&](std::uint32_t asn, topology::AsTier tier,
                       std::uint16_t pops) {
    topology::AsNode node;
    node.asn = topology::AsNumber{asn};
    node.tier = tier;
    node.name = "AS" + std::to_string(asn);
    for (std::uint16_t c = 0; c < pops; ++c)
      node.pops.push_back(topology::Pop{c, centers[c].location});
    return topo.add_as(std::move(node));
  };
  const topology::AsId transit = add(64500, topology::AsTier::kTransit, 2);
  const topology::AsId stub = add(64501, topology::AsTier::kStub, 1);
  topo.link(stub, 0, transit, 1, topology::Relationship::kProvider);
  const std::uint32_t prefix = topo.announce(
      stub, net::Prefix{kForgedBlock.base_address(), prefix_length});
  topo.add_block(kForgedBlock, stub, 0, prefix);
  geo::GeoRecord rec;
  rec.location = centers[0].location;
  rec.continent = centers[0].continent;
  topo.geodb_mutable().prepare_span(kForgedBlock, kForgedBlock);
  topo.geodb_mutable().set(kForgedBlock, rec);
  topo.geodb_mutable().recount();
  topo.seal();
  return topo;
}

/// The loader's error for `bytes`, or "" if it accepted them.
std::string load_error(const std::string& bytes) {
  Topology restored;
  std::string error;
  return topology::deserialize_topology(bytes, restored, error) ? "" : error;
}

/// The error for forgeable() after `forge` edits it in place.
template <typename Forge>
std::string forged_error(Forge forge) {
  Topology topo = forgeable();
  forge(topo);
  return load_error(topology::serialize_topology(topo));
}

void set_geo(Topology& topo, std::uint16_t center, std::uint8_t continent) {
  geo::GeoRecord rec = *topo.geodb().lookup(kForgedBlock);
  rec.center_id = center;
  rec.continent = static_cast<geo::Continent>(continent);
  topo.geodb_mutable().set(kForgedBlock, rec);  // in place: still one record
}

TEST(GeneratorDeterminism, ForgeableImageLoads) {
  EXPECT_EQ(load_error(topology::serialize_topology(forgeable())), "");
}

TEST(GeneratorDeterminism, ForgedPrefixOriginIsRejected) {
  // Image tail: prefix (base u32, length u8, origin u32), block (14
  // bytes), geo record (25 bytes), CRC-32.
  std::string bytes = topology::serialize_topology(forgeable());
  const std::size_t origin_at = bytes.size() - 4 - 25 - 14 - 4;
  std::uint32_t origin = 0;
  std::memcpy(&origin, bytes.data() + origin_at, sizeof origin);
  ASSERT_EQ(origin, 1u);
  origin = 1000;
  std::memcpy(bytes.data() + origin_at, &origin, sizeof origin);
  const std::uint32_t crc = util::crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof crc);
  EXPECT_EQ(load_error(bytes),
            "topology image: prefix origin AS out of range");
}

TEST(GeneratorDeterminism, ForgedPrefixLengthIsRejected) {
  EXPECT_EQ(load_error(topology::serialize_topology(forgeable(25))),
            "topology image: prefix length out of range");
}

TEST(GeneratorDeterminism, ForgedBlockAsIsRejected) {
  EXPECT_EQ(forged_error([](Topology& t) {
              t.set_block(0, {kForgedBlock, 1000, 0, 0});
            }),
            "topology image: block AS out of range");
}

TEST(GeneratorDeterminism, ForgedBlockPopIsRejected) {
  EXPECT_EQ(forged_error([](Topology& t) {
              t.set_block(0, {kForgedBlock, 1, 9, 0});
            }),
            "topology image: block PoP out of range");
}

TEST(GeneratorDeterminism, ForgedBlockPrefixIsRejected) {
  EXPECT_EQ(forged_error([](Topology& t) {
              t.set_block(0, {kForgedBlock, 1, 0, 1});
            }),
            "topology image: block prefix index out of range");
}

TEST(GeneratorDeterminism, ForgedLinkNeighborIsRejected) {
  EXPECT_EQ(forged_error([](Topology& t) {
              t.as_mutable(1).links[0].neighbor = 2;
            }),
            "topology image: link neighbor AS out of range");
}

TEST(GeneratorDeterminism, ForgedLinkPopIsRejected) {
  // AS 1's link joins its only PoP to the provider's PoP 1 of 2: one
  // past the end on either side is forged.
  EXPECT_EQ(forged_error([](Topology& t) {
              t.as_mutable(1).links[0].local_pop = 1;
            }),
            "topology image: link PoP out of range");
  EXPECT_EQ(forged_error([](Topology& t) {
              t.as_mutable(1).links[0].remote_pop = 2;
            }),
            "topology image: link PoP out of range");
}

TEST(GeneratorDeterminism, ForgedPopCenterIsRejected) {
  const auto centers = static_cast<std::uint16_t>(geo::world_centers().size());
  EXPECT_EQ(forged_error([&](Topology& t) {
              t.as_mutable(0).pops[1].center_id = centers;
            }),
            "topology image: PoP center id out of range");
}

TEST(GeneratorDeterminism, ForgedGeoCenterIsRejected) {
  const auto centers = static_cast<std::uint16_t>(geo::world_centers().size());
  EXPECT_EQ(forged_error([&](Topology& t) { set_geo(t, centers, 0); }),
            "topology image: geo center id out of range");
}

TEST(GeneratorDeterminism, ForgedTierIsRejected) {
  EXPECT_EQ(forged_error([](Topology& t) {
              t.as_mutable(1).tier = static_cast<topology::AsTier>(3);
            }),
            "topology image: AS tier byte out of range");
}

TEST(GeneratorDeterminism, ForgedRelationshipIsRejected) {
  EXPECT_EQ(forged_error([](Topology& t) {
              t.as_mutable(1).links[0].rel =
                  static_cast<topology::Relationship>(3);
            }),
            "topology image: link relationship byte out of range");
}

TEST(GeneratorDeterminism, ForgedContinentIsRejected) {
  EXPECT_EQ(forged_error([](Topology& t) { set_geo(t, 0, 6); }),
            "topology image: geo continent byte out of range");
}

// Blocks and geo records consistent with nothing else in the image: the
// CRC and digest are recomputed over them, so only the loader's own
// checks stand between them and the build API.
TEST(GeneratorDeterminism, ForgedDuplicateBlockIsRejected) {
  EXPECT_EQ(forged_error([](Topology& t) {
              t.add_block(kForgedBlock, 1, 0, 0);
            }),
            "topology image: block listed twice");
}

TEST(GeneratorDeterminism, ForgedBlockOutsidePrefixIsRejected) {
  EXPECT_EQ(forged_error([](Topology& t) {
              t.add_block(net::Block24{0x020000}, 1, 0, 0);  // 2.0.0.0/24
            }),
            "topology image: block outside its prefix");
}

TEST(GeneratorDeterminism, ForgedSplitAsBlockRunIsRejected) {
  // AS 1's blocks 1.0.0.0/24 and 1.0.2.0/24 around AS 0's 1.0.1.0/24:
  // AS 1's first_block/block_count range would cover AS 0's block and
  // miss its own second one.
  EXPECT_EQ(forged_error([](Topology& t) {
              const std::uint32_t p =
                  t.announce(0, *net::Prefix::parse("1.0.1.0/24"));
              const std::uint32_t q =
                  t.announce(1, *net::Prefix::parse("1.0.2.0/24"));
              t.add_block(net::Block24{0x010001}, 0, 0, p);
              t.add_block(net::Block24{0x010002}, 1, 0, q);
            }),
            "topology image: block outside its AS's run");
}

TEST(GeneratorDeterminism, ForgedGeoRecordForUnlistedBlockIsRejected) {
  EXPECT_EQ(forged_error([](Topology& t) {
              const geo::GeoRecord rec = *t.geodb().lookup(kForgedBlock);
              const net::Block24 unlisted{0x010001};  // 1.0.1.0
              geo::GeoDatabase& db = t.geodb_mutable();
              db.prepare_span(kForgedBlock, unlisted);
              db.set(kForgedBlock, rec);
              db.set(unlisted, rec);
              db.recount();
            }),
            "topology image: geo record for an unlisted block");
}

/// Reverses `count` records of `size` bytes starting at `at`, keeping
/// each record whole.
void reverse_records(std::string& bytes, std::size_t at, std::size_t count,
                     std::size_t size) {
  char* const first = bytes.data() + at;
  for (std::size_t i = 0, j = count - 1; i < j; ++i, --j)
    std::swap_ranges(first + i * size, first + (i + 1) * size,
                     first + j * size);
}

/// Seconds deserialize_topology takes on `bytes`; `error` gets its
/// verdict ("" when it accepts them).
double timed_load(const std::string& bytes, Topology& restored,
                  std::string& error) {
  const auto t0 = std::chrono::steady_clock::now();
  if (topology::deserialize_topology(bytes, restored, error)) error.clear();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// An image's block and geo sections may come in any order, and loading
// must stay linear in their size: when the direct-mapped indexes grew by
// front inserts, the image below listed highest first took ~45 s to load
// against well under a second in ascending order. Both sections are
// reversed, record by record, and the CRC recomputed. With the stored
// digest the loader rebuilds everything, then refuses the block order;
// with the reversed topology's digest stored instead it accepts, and
// answers as the original does.
TEST(GeneratorDeterminism, ReversedImageLoadsInLinearTime) {
  // Record sizes: a block is index, AS, PoP, prefix (4+4+2+4); a geo
  // record index, lat, lon, center, country, continent (4+8+8+2+2+1).
  constexpr std::size_t kBlockRecord = 14;
  constexpr std::size_t kGeoRecord = 25;
  constexpr double kBoundSeconds = 10.0;
  ScaleConfig config;
  config.as_count = 16'000;
  config.target_blocks = 208'000;
  const Topology topo = generate_scale_topology(config);
  const std::size_t blocks = topo.block_count();
  const std::size_t geo = topo.geodb().size();
  ASSERT_GE(blocks, 200'000u);

  std::string bytes = topology::serialize_topology(topo);
  const std::size_t geo_at = bytes.size() - 4 - geo * kGeoRecord;
  const std::size_t block_at = geo_at - blocks * kBlockRecord;
  reverse_records(bytes, block_at, blocks, kBlockRecord);
  reverse_records(bytes, geo_at, geo, kGeoRecord);
  const auto reframe = [&bytes] {
    const std::uint32_t crc = util::crc32(bytes.data(), bytes.size() - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof crc);
  };
  reframe();

  Topology restored;
  std::string error;
  double seconds = timed_load(bytes, restored, error);
  EXPECT_EQ(error, "rebuilt topology does not match stored digest");
  EXPECT_LT(seconds, kBoundSeconds) << blocks << " blocks, stored digest";

  // The reversed topology: the same records in the opposite slots, each
  // AS's block range mirrored.
  Topology reversed = topo;
  for (std::size_t i = 0; i < blocks; ++i)
    reversed.set_block(static_cast<std::uint32_t>(blocks - 1 - i),
                       topo.blocks()[i]);
  for (topology::AsId v = 0; v < topo.as_count(); ++v) {
    topology::AsNode& node = reversed.as_mutable(v);
    if (node.block_count > 0)
      node.first_block = static_cast<std::uint32_t>(blocks) -
                         (node.first_block + node.block_count);
  }
  const std::uint64_t digest = topology::structural_digest(reversed);
  std::memcpy(bytes.data() + 8, &digest, sizeof digest);
  reframe();
  seconds = timed_load(bytes, restored, error);
  ASSERT_EQ(error, "");
  EXPECT_LT(seconds, kBoundSeconds) << blocks << " blocks, reversed digest";
  EXPECT_EQ(restored.block_count(), blocks);
  EXPECT_EQ(restored.geodb().size(), geo);
  for (const topology::BlockInfo& info : topo.blocks()) {
    const topology::BlockInfo* got = restored.block_info(info.block);
    ASSERT_NE(got, nullptr) << info.block.to_string();
    ASSERT_EQ(got->as_id, info.as_id);
    ASSERT_EQ(got->pop, info.pop);
    ASSERT_EQ(got->prefix_index, info.prefix_index);
    const auto want_geo = topo.geodb().lookup(info.block);
    const auto got_geo = restored.geodb().lookup(info.block);
    ASSERT_EQ(got_geo.has_value(), want_geo.has_value());
    if (want_geo) {
      ASSERT_EQ(got_geo->center_id, want_geo->center_id);
      ASSERT_EQ(got_geo->location.lat, want_geo->location.lat);
    }
  }
}

}  // namespace
}  // namespace vp
