#include "topology/topo_io.hpp"

#include <algorithm>

#include "geo/world.hpp"
#include "util/atomic_file.hpp"
#include "util/byte_codec.hpp"
#include "util/rng.hpp"

namespace vp::topology {
namespace {

using util::hash_combine;
using util::put_le;

constexpr std::uint64_t kMagic = 0x5650544f504f3101ULL;  // "VPTOPO1\x01"

void put_str(std::string& out, const std::string& s) {
  put_le(out, static_cast<std::uint16_t>(s.size()));
  out.append(s);
}

std::string get_str(util::ByteReader& r) {
  return std::string{r.bytes(r.get<std::uint16_t>())};
}

}  // namespace

std::uint64_t structural_digest(const Topology& topo) {
  std::uint64_t h = 0x746f706f;  // "topo"
  const auto fold = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  fold(topo.as_count());
  for (const AsNode& node : topo.ases()) {
    fold(node.asn.value);
    fold(static_cast<std::uint64_t>(node.tier));
    fold((static_cast<std::uint64_t>(node.load_balanced) << 1) |
         static_cast<std::uint64_t>(node.multipath));
    fold(node.pops.size());
    for (const Pop& pop : node.pops) fold(pop.center_id);
    fold(node.links.size());
    for (const Link& link : node.links) {
      fold(link.neighbor);
      fold((static_cast<std::uint64_t>(link.rel) << 32) |
           (static_cast<std::uint64_t>(link.local_pop) << 16) |
           link.remote_pop);
      fold((static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(link.local_pref_bonus))
            << 8) |
           static_cast<std::uint8_t>(link.reverse_local_pref_bonus));
    }
    fold((static_cast<std::uint64_t>(node.first_prefix) << 32) |
         node.prefix_count);
    fold((static_cast<std::uint64_t>(node.first_block) << 32) |
         node.block_count);
  }
  fold(topo.announced_prefixes().size());
  for (const AnnouncedPrefix& p : topo.announced_prefixes()) {
    fold((static_cast<std::uint64_t>(p.prefix.base().value()) << 8) |
         p.prefix.length());
    fold(p.origin);
  }
  fold(topo.block_count());
  for (const BlockInfo& b : topo.blocks()) {
    fold((static_cast<std::uint64_t>(b.block.index()) << 32) | b.as_id);
    fold((static_cast<std::uint64_t>(b.pop) << 32) | b.prefix_index);
  }
  fold(topo.geodb().size());
  topo.geodb().for_each([&](net::Block24 block, const geo::GeoRecord& rec) {
    fold((static_cast<std::uint64_t>(block.index()) << 24) |
         (static_cast<std::uint64_t>(rec.center_id) << 8) |
         static_cast<std::uint64_t>(rec.continent));
  });
  return h;
}

std::string serialize_topology(const Topology& topo) {
  std::string out;
  put_le(out, kMagic);
  put_le(out, structural_digest(topo));
  put_le(out, static_cast<std::uint64_t>(topo.as_count()));
  put_le(out, static_cast<std::uint64_t>(topo.announced_prefixes().size()));
  put_le(out, static_cast<std::uint64_t>(topo.block_count()));
  put_le(out, static_cast<std::uint64_t>(topo.geodb().size()));
  for (const AsNode& node : topo.ases()) {
    put_le(out, node.asn.value);
    put_le(out, static_cast<std::uint8_t>(node.tier));
    put_le(out, static_cast<std::uint8_t>(node.load_balanced));
    put_le(out, static_cast<std::uint8_t>(node.multipath));
    put_str(out, node.name);
    put_le(out, node.flap_scale);
    put_le(out, node.icmp_response_scale);
    put_le(out, static_cast<std::uint16_t>(node.pops.size()));
    for (const Pop& pop : node.pops) {
      put_le(out, pop.center_id);
      put_le(out, pop.location.lat);
      put_le(out, pop.location.lon);
    }
    // Links are stored for both directions and reassigned verbatim on
    // load, reproducing the exact adjacency order (and the mirrored
    // reverse bonuses) the generator produced.
    put_le(out, static_cast<std::uint32_t>(node.links.size()));
    for (const Link& link : node.links) {
      put_le(out, link.neighbor);
      put_le(out, static_cast<std::uint8_t>(link.rel));
      put_le(out, link.local_pop);
      put_le(out, link.remote_pop);
      put_le(out, link.local_pref_bonus);
      put_le(out, link.reverse_local_pref_bonus);
    }
  }
  for (const AnnouncedPrefix& p : topo.announced_prefixes()) {
    put_le(out, p.prefix.base().value());
    put_le(out, p.prefix.length());
    put_le(out, p.origin);
  }
  for (const BlockInfo& b : topo.blocks()) {
    put_le(out, b.block.index());
    put_le(out, b.as_id);
    put_le(out, b.pop);
    put_le(out, b.prefix_index);
  }
  topo.geodb().for_each([&](net::Block24 block, const geo::GeoRecord& rec) {
    put_le(out, block.index());
    put_le(out, rec.location.lat);
    put_le(out, rec.location.lon);
    put_le(out, rec.center_id);
    put_le(out, rec.country[0]);
    put_le(out, rec.country[1]);
    put_le(out, static_cast<std::uint8_t>(rec.continent));
  });
  put_le(out, util::crc32(out));
  return out;
}

bool save_topology(const Topology& topo, const std::string& path) {
  return util::atomic_write_file(path, serialize_topology(topo));
}

bool deserialize_topology(const std::string& bytes, Topology& out,
                          std::string& error) {
  if (bytes.size() < sizeof(std::uint64_t) + sizeof(std::uint32_t)) {
    error = "truncated topology image";
    return false;
  }
  const std::string_view body{bytes.data(),
                              bytes.size() - sizeof(std::uint32_t)};
  if (util::crc32(body) !=
      util::ByteReader{std::string_view{bytes}.substr(body.size())}
          .get<std::uint32_t>()) {
    error = "topology image CRC mismatch";
    return false;
  }
  util::ByteReader r{body};
  if (r.get<std::uint64_t>() != kMagic) {
    error = "not a topology image (bad magic)";
    return false;
  }
  const auto stored_digest = r.get<std::uint64_t>();
  const auto as_count = r.get<std::uint64_t>();
  const auto prefix_count = r.get<std::uint64_t>();
  const auto block_count = r.get<std::uint64_t>();
  const auto geo_count = r.get<std::uint64_t>();

  // The CRC and the digest only prove the bytes are self-consistent:
  // anyone can recompute both. Every index is checked against the table
  // it points into, and every block and geo record against the image's
  // own prefixes and block list, before the build API sees it.
  const std::size_t centers = geo::world_centers().size();
  const auto refuse = [&error](const std::string& why) {
    error = "topology image: " + why;
    return false;
  };
  const auto reject = [&refuse](const std::string& field) {
    return refuse(field + " out of range");
  };

  Topology topo;
  for (std::uint64_t v = 0; v < as_count && r.ok(); ++v) {
    AsNode node;
    node.asn = AsNumber{r.get<std::uint32_t>()};
    const auto tier = r.get<std::uint8_t>();
    if (tier > static_cast<std::uint8_t>(AsTier::kStub))
      return reject("AS tier byte");
    node.tier = static_cast<AsTier>(tier);
    node.load_balanced = r.get<std::uint8_t>() != 0;
    node.multipath = r.get<std::uint8_t>() != 0;
    node.name = get_str(r);
    node.flap_scale = r.get<double>();
    node.icmp_response_scale = r.get<double>();
    const auto pop_count = r.get<std::uint16_t>();
    for (std::uint16_t i = 0; i < pop_count && r.ok(); ++i) {
      Pop pop;
      pop.center_id = r.get<std::uint16_t>();
      if (pop.center_id >= centers) return reject("PoP center id");
      pop.location.lat = r.get<double>();
      pop.location.lon = r.get<double>();
      node.pops.push_back(pop);
    }
    const auto link_count = r.get<std::uint32_t>();
    std::vector<Link> links;
    for (std::uint32_t i = 0; i < link_count && r.ok(); ++i) {
      Link link;
      link.neighbor = r.get<AsId>();
      const auto rel = r.get<std::uint8_t>();
      if (rel > static_cast<std::uint8_t>(Relationship::kProvider))
        return reject("link relationship byte");
      link.rel = static_cast<Relationship>(rel);
      link.local_pop = r.get<std::uint16_t>();
      link.remote_pop = r.get<std::uint16_t>();
      link.local_pref_bonus = r.get<std::int8_t>();
      link.reverse_local_pref_bonus = r.get<std::int8_t>();
      links.push_back(link);
    }
    const AsId id = topo.add_as(std::move(node));
    topo.as_mutable(id).links = std::move(links);
  }
  // A link may name an AS stored after it, so links are checked once
  // every AS and its PoP count is known.
  for (const AsNode& node : topo.ases()) {
    for (const Link& link : node.links) {
      if (link.neighbor >= topo.as_count()) return reject("link neighbor AS");
      if (link.local_pop >= node.pops.size() ||
          link.remote_pop >= topo.as_at(link.neighbor).pops.size())
        return reject("link PoP");
    }
  }
  for (std::uint64_t i = 0; i < prefix_count && r.ok(); ++i) {
    const auto base = r.get<std::uint32_t>();
    const auto len = r.get<std::uint8_t>();
    const auto origin = r.get<AsId>();
    if (origin >= topo.as_count()) return reject("prefix origin AS");
    if (len > 24) return reject("prefix length");
    topo.announce(origin, net::Prefix{net::Ipv4Address{base}, len});
  }
  std::vector<BlockInfo> blocks;
  for (std::uint64_t i = 0; i < block_count && r.ok(); ++i) {
    BlockInfo b;
    const auto index = r.get<std::uint32_t>();
    b.as_id = r.get<AsId>();
    b.pop = r.get<std::uint16_t>();
    b.prefix_index = r.get<std::uint32_t>();
    if (!r.ok()) break;
    if (b.as_id >= topo.as_count()) return reject("block AS");
    if (b.pop >= topo.as_at(b.as_id).pops.size()) return reject("block PoP");
    if (b.prefix_index >= topo.announced_prefixes().size())
      return reject("block prefix index");
    b.block = net::Block24{index};
    if (index > 0xffffff ||
        !topo.announced_prefixes()[b.prefix_index].prefix.contains(
            b.block.base_address()))
      return refuse("block outside its prefix");
    blocks.push_back(b);
  }
  // Sorted block indices: a repeat is a block listed twice, and a geo
  // record must name one of them (else the direct-mapped geo table would
  // stretch to any /24 the image names). The first and last bound the
  // geo store, sized here once, as seal() sizes the block index: neither
  // grows with the order the image lists its blocks and records in.
  std::vector<std::uint32_t> listed(blocks.size());
  std::ranges::transform(blocks, listed.begin(),
                         [](const BlockInfo& b) { return b.block.index(); });
  std::ranges::sort(listed);
  if (std::ranges::adjacent_find(listed) != listed.end())
    return refuse("block listed twice");
  for (const BlockInfo& b : blocks) {
    // An AS's blocks are one run of the list: its first_block and
    // block_count are read as a range (delta routing's changed blocks).
    const AsNode& node = topo.as_at(b.as_id);
    if (node.block_count > 0 &&
        node.first_block + node.block_count != topo.block_count())
      return refuse("block outside its AS's run");
    topo.add_block(b.block, b.as_id, b.pop, b.prefix_index);
  }
  geo::GeoDatabase& geodb = topo.geodb_mutable();
  if (geo_count > 0 && !listed.empty())
    geodb.prepare_span(net::Block24{listed.front()},
                       net::Block24{listed.back()});
  for (std::uint64_t i = 0; i < geo_count && r.ok(); ++i) {
    const auto index = r.get<std::uint32_t>();
    geo::GeoRecord rec;
    rec.location.lat = r.get<double>();
    rec.location.lon = r.get<double>();
    rec.center_id = r.get<std::uint16_t>();
    if (rec.center_id >= centers) return reject("geo center id");
    rec.country[0] = r.get<char>();
    rec.country[1] = r.get<char>();
    rec.country[2] = '\0';
    const auto continent = r.get<std::uint8_t>();
    if (continent > static_cast<std::uint8_t>(geo::Continent::kOceania))
      return reject("geo continent byte");
    rec.continent = static_cast<geo::Continent>(continent);
    if (!r.ok()) break;
    if (!std::ranges::binary_search(listed, index))
      return refuse("geo record for an unlisted block");
    geodb.set(net::Block24{index}, rec);
  }
  geodb.recount();
  if (!r.ok()) {
    error = "truncated topology image";
    return false;
  }
  topo.seal();
  if (structural_digest(topo) != stored_digest) {
    error = "rebuilt topology does not match stored digest";
    return false;
  }
  out = std::move(topo);
  return true;
}

bool load_topology(const std::string& path, Topology& out,
                   std::string& error) {
  const std::optional<std::string> image = util::read_file(path);
  if (!image) {
    error = "cannot open " + path;
    return false;
  }
  return deserialize_topology(*image, out, error);
}

}  // namespace vp::topology
