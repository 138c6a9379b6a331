#include "topology/topology.hpp"

#include <algorithm>
#include <cassert>

namespace vp::topology {

std::string_view to_string(AsTier tier) {
  switch (tier) {
    case AsTier::kTransit: return "transit";
    case AsTier::kRegional: return "regional";
    case AsTier::kStub: return "stub";
  }
  return "?";
}

std::string_view to_string(Relationship rel) {
  switch (rel) {
    case Relationship::kCustomer: return "customer";
    case Relationship::kPeer: return "peer";
    case Relationship::kProvider: return "provider";
  }
  return "?";
}

AsId Topology::find_as(AsNumber asn) const {
  const auto it = by_asn_.find(asn.value);
  return it == by_asn_.end() ? kNoAs : it->second;
}

const BlockInfo* Topology::block_info(net::Block24 block) const {
  const std::uint32_t off = block.index() - block_first_;  // wraps if below
  if (off >= block_slots_.size()) return nullptr;
  const std::uint32_t slot = block_slots_[off];
  return slot == kNoBlockSlot ? nullptr : &blocks_[slot];
}

AsId Topology::add_as(AsNode node) {
  const auto id = static_cast<AsId>(ases_.size());
  by_asn_.emplace(node.asn.value, id);
  node.first_prefix = 0;
  node.prefix_count = 0;
  node.first_block = 0;
  node.block_count = 0;
  ases_.push_back(std::move(node));
  return id;
}

void Topology::link(AsId lower, std::uint16_t lower_pop, AsId upper,
                    std::uint16_t upper_pop,
                    Relationship lower_sees_upper_as) {
  assert(lower < ases_.size() && upper < ases_.size());
  // Refuse duplicate edges between the same AS pair.
  for (const Link& l : ases_[lower].links)
    if (l.neighbor == upper) return;
  ases_[lower].links.push_back(
      Link{upper, lower_sees_upper_as, lower_pop, upper_pop});
  const Relationship reciprocal =
      lower_sees_upper_as == Relationship::kProvider ? Relationship::kCustomer
      : lower_sees_upper_as == Relationship::kCustomer
          ? Relationship::kProvider
          : Relationship::kPeer;
  ases_[upper].links.push_back(Link{lower, reciprocal, upper_pop, lower_pop});
}

void Topology::set_local_pref_bonus(AsId from, AsId to, std::int8_t bonus) {
  bool found = false;
  for (Link& l : ases_[from].links) {
    if (l.neighbor == to) {
      l.local_pref_bonus = bonus;
      found = true;
      break;
    }
  }
  if (!found) return;
  // Mirror onto the neighbor's directed link so an advertisement over
  // to->from can price the receiver's policy without scanning its links.
  for (Link& l : ases_[to].links) {
    if (l.neighbor == from) {
      l.reverse_local_pref_bonus = bonus;
      return;
    }
  }
}

std::uint32_t Topology::announce(AsId as_id, net::Prefix prefix) {
  const auto index = static_cast<std::uint32_t>(prefixes_.size());
  prefixes_.push_back(AnnouncedPrefix{prefix, as_id});
  AsNode& node = ases_[as_id];
  if (node.prefix_count == 0) node.first_prefix = index;
  ++node.prefix_count;
  return index;
}

void Topology::add_block(net::Block24 block, AsId as_id, std::uint16_t pop,
                         std::uint32_t prefix_index) {
  const auto index = static_cast<std::uint32_t>(blocks_.size());
  blocks_.push_back(BlockInfo{block, as_id, pop, prefix_index});
  AsNode& node = ases_[as_id];
  if (node.block_count == 0) node.first_block = index;
  ++node.block_count;
}

void Topology::begin_bulk_blocks(std::size_t total) {
  blocks_.assign(total, BlockInfo{});
}

std::size_t Topology::memory_bytes() const {
  std::size_t bytes = ases_.capacity() * sizeof(AsNode) +
                      prefixes_.capacity() * sizeof(AnnouncedPrefix) +
                      blocks_.capacity() * sizeof(BlockInfo) +
                      block_slots_.capacity() * sizeof(std::uint32_t) +
                      by_asn_.size() * (sizeof(std::uint32_t) + sizeof(AsId) +
                                        2 * sizeof(void*)) +
                      geodb_.memory_bytes();
  for (const AsNode& node : ases_) {
    bytes += node.pops.capacity() * sizeof(Pop) +
             node.links.capacity() * sizeof(Link);
  }
  return bytes;
}

void Topology::seal() {
  // One pass finds the span, one fills its slots: linear in the blocks
  // whatever their order (a loaded image lists them as its writer chose).
  std::uint32_t lo = 0xffffffff, hi = 0;
  for (const BlockInfo& info : blocks_) {
    lo = std::min(lo, info.block.index());
    hi = std::max(hi, info.block.index());
  }
  block_first_ = blocks_.empty() ? 0 : lo;
  block_slots_.assign(blocks_.empty() ? 0 : hi - lo + 1, kNoBlockSlot);
  for (std::uint32_t i = 0; i < blocks_.size(); ++i)
    block_slots_[blocks_[i].block.index() - block_first_] = i;

  // Generation appends prefixes and blocks per-AS contiguously, so the
  // first/count ranges recorded by announce()/add_block() are already
  // consistent; just sanity-check in debug builds.
#ifndef NDEBUG
  for (const AsNode& node : ases_) {
    for (std::uint32_t i = 0; i < node.block_count; ++i)
      assert(blocks_[node.first_block + i].as_id ==
             static_cast<AsId>(&node - ases_.data()));
    // The mirrored reverse bonus (set_local_pref_bonus) must agree with
    // what a scan of the neighbor's adjacency list would find.
    for (const Link& l : node.links) {
      for (const Link& back : ases_[l.neighbor].links) {
        if (back.neighbor == static_cast<AsId>(&node - ases_.data())) {
          assert(l.reverse_local_pref_bonus == back.local_pref_bonus);
          break;
        }
      }
    }
  }
#endif
}

}  // namespace vp::topology
