#include "topology/topo_io.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>

#include "geo/world.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"

namespace vp::topology {
namespace {

using util::hash_combine;

constexpr std::uint64_t kMagic = 0x5650544f504f3101ULL;  // "VPTOPO1\x01"

// --- little primitives over a byte buffer ---------------------------------

struct Writer {
  std::string out;

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    out.append(bytes, sizeof(T));
  }

  void put_f64(double value) { put(std::bit_cast<std::uint64_t>(value)); }

  void put_str(const std::string& s) {
    put(static_cast<std::uint16_t>(s.size()));
    out.append(s);
  }
};

struct Reader {
  const std::string& in;
  std::size_t pos = 0;
  bool ok = true;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    if (pos + sizeof(T) > in.size()) {
      ok = false;
      return value;
    }
    std::memcpy(&value, in.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  double get_f64() { return std::bit_cast<double>(get<std::uint64_t>()); }

  std::string get_str() {
    const auto len = get<std::uint16_t>();
    if (pos + len > in.size()) {
      ok = false;
      return {};
    }
    std::string s = in.substr(pos, len);
    pos += len;
    return s;
  }
};

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
  Writer w;
  w.put(kMagic);
  w.put(structural_digest(topo));
  w.put(static_cast<std::uint64_t>(topo.as_count()));
  w.put(static_cast<std::uint64_t>(topo.announced_prefixes().size()));
  w.put(static_cast<std::uint64_t>(topo.block_count()));
  w.put(static_cast<std::uint64_t>(topo.geodb().size()));
  for (const AsNode& node : topo.ases()) {
    w.put(node.asn.value);
    w.put(static_cast<std::uint8_t>(node.tier));
    w.put(static_cast<std::uint8_t>(node.load_balanced));
    w.put(static_cast<std::uint8_t>(node.multipath));
    w.put_str(node.name);
    w.put_f64(node.flap_scale);
    w.put_f64(node.icmp_response_scale);
    w.put(static_cast<std::uint16_t>(node.pops.size()));
    for (const Pop& pop : node.pops) {
      w.put(pop.center_id);
      w.put_f64(pop.location.lat);
      w.put_f64(pop.location.lon);
    }
    // Links are stored for both directions and reassigned verbatim on
    // load, reproducing the exact adjacency order (and the mirrored
    // reverse bonuses) the generator produced.
    w.put(static_cast<std::uint32_t>(node.links.size()));
    for (const Link& link : node.links) {
      w.put(link.neighbor);
      w.put(static_cast<std::uint8_t>(link.rel));
      w.put(link.local_pop);
      w.put(link.remote_pop);
      w.put(link.local_pref_bonus);
      w.put(link.reverse_local_pref_bonus);
    }
  }
  for (const AnnouncedPrefix& p : topo.announced_prefixes()) {
    w.put(p.prefix.base().value());
    w.put(p.prefix.length());
    w.put(p.origin);
  }
  for (const BlockInfo& b : topo.blocks()) {
    w.put(b.block.index());
    w.put(b.as_id);
    w.put(b.pop);
    w.put(b.prefix_index);
  }
  topo.geodb().for_each([&](net::Block24 block, const geo::GeoRecord& rec) {
    w.put(block.index());
    w.put_f64(rec.location.lat);
    w.put_f64(rec.location.lon);
    w.put(rec.center_id);
    w.put(rec.country[0]);
    w.put(rec.country[1]);
    w.put(static_cast<std::uint8_t>(rec.continent));
  });
  w.put(util::crc32(w.out.data(), w.out.size()));
  return std::move(w.out);
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
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  if (util::crc32(bytes.data(), bytes.size() - sizeof(stored_crc)) !=
      stored_crc) {
    error = "topology image CRC mismatch";
    return false;
  }
  Reader r{bytes};
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
  // it points into before the build API sees it.
  const std::size_t centers = geo::world_centers().size();
  const auto reject = [&error](const char* what) {
    error = std::string{"topology image: "} + what + " out of range";
    return false;
  };

  Topology topo;
  for (std::uint64_t v = 0; v < as_count && r.ok; ++v) {
    AsNode node;
    node.asn = AsNumber{r.get<std::uint32_t>()};
    const auto tier = r.get<std::uint8_t>();
    if (tier > static_cast<std::uint8_t>(AsTier::kStub))
      return reject("AS tier byte");
    node.tier = static_cast<AsTier>(tier);
    node.load_balanced = r.get<std::uint8_t>() != 0;
    node.multipath = r.get<std::uint8_t>() != 0;
    node.name = r.get_str();
    node.flap_scale = r.get_f64();
    node.icmp_response_scale = r.get_f64();
    const auto pop_count = r.get<std::uint16_t>();
    for (std::uint16_t i = 0; i < pop_count && r.ok; ++i) {
      Pop pop;
      pop.center_id = r.get<std::uint16_t>();
      if (pop.center_id >= centers) return reject("PoP center id");
      pop.location.lat = r.get_f64();
      pop.location.lon = r.get_f64();
      node.pops.push_back(pop);
    }
    const auto link_count = r.get<std::uint32_t>();
    std::vector<Link> links;
    for (std::uint32_t i = 0; i < link_count && r.ok; ++i) {
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
  for (std::uint64_t i = 0; i < prefix_count && r.ok; ++i) {
    const auto base = r.get<std::uint32_t>();
    const auto len = r.get<std::uint8_t>();
    const auto origin = r.get<AsId>();
    if (origin >= topo.as_count()) return reject("prefix origin AS");
    if (len > 24) return reject("prefix length");
    topo.announce(origin, net::Prefix{net::Ipv4Address{base}, len});
  }
  for (std::uint64_t i = 0; i < block_count && r.ok; ++i) {
    const auto index = r.get<std::uint32_t>();
    const auto as_id = r.get<AsId>();
    const auto pop = r.get<std::uint16_t>();
    const auto prefix_index = r.get<std::uint32_t>();
    if (as_id >= topo.as_count()) return reject("block AS");
    if (pop >= topo.as_at(as_id).pops.size()) return reject("block PoP");
    if (prefix_index >= topo.announced_prefixes().size())
      return reject("block prefix index");
    topo.add_block(net::Block24{index}, as_id, pop, prefix_index);
  }
  for (std::uint64_t i = 0; i < geo_count && r.ok; ++i) {
    const auto index = r.get<std::uint32_t>();
    geo::GeoRecord rec;
    rec.location.lat = r.get_f64();
    rec.location.lon = r.get_f64();
    rec.center_id = r.get<std::uint16_t>();
    if (rec.center_id >= centers) return reject("geo center id");
    rec.country[0] = r.get<char>();
    rec.country[1] = r.get<char>();
    rec.country[2] = '\0';
    const auto continent = r.get<std::uint8_t>();
    if (continent > static_cast<std::uint8_t>(geo::Continent::kOceania))
      return reject("geo continent byte");
    rec.continent = static_cast<geo::Continent>(continent);
    topo.geodb_mutable().add(net::Block24{index}, rec);
  }
  if (!r.ok) {
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return deserialize_topology(buffer.str(), out, error);
}

}  // namespace vp::topology
