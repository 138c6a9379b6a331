// The assembled simulated Internet: ASes, links, prefixes, blocks, geo.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geo/geodb.hpp"
#include "topology/as_node.hpp"

namespace vp::topology {

class Topology {
 public:
  // --- read API -----------------------------------------------------------
  std::size_t as_count() const { return ases_.size(); }
  const AsNode& as_at(AsId id) const { return ases_[id]; }
  std::span<const AsNode> ases() const { return ases_; }

  /// Looks up an AS by its number; kNoAs if absent.
  AsId find_as(AsNumber asn) const;

  std::span<const AnnouncedPrefix> announced_prefixes() const {
    return prefixes_;
  }
  std::span<const BlockInfo> blocks() const { return blocks_; }
  std::size_t block_count() const { return blocks_.size(); }

  /// Ownership record for a block; nullptr if the block is unallocated.
  /// Valid once seal() has indexed the blocks.
  const BlockInfo* block_info(net::Block24 block) const;

  /// The /24 span seal() indexed, lowest block to highest: blocks
  /// [block_first(), block_first() + block_span()). Empty without blocks.
  std::uint32_t block_first() const { return block_first_; }
  std::size_t block_span() const { return block_slots_.size(); }

  const geo::GeoDatabase& geodb() const { return geodb_; }

  // --- build API (used by the generator) -----------------------------------
  AsId add_as(AsNode node);
  AsNode& as_mutable(AsId id) { return ases_[id]; }

  /// Records a bidirectional relationship: `upper` is `lower`'s provider
  /// (or a symmetric peering when rel == kPeer).
  void link(AsId lower, std::uint16_t lower_pop, AsId upper,
            std::uint16_t upper_pop, Relationship lower_sees_upper_as);

  /// Sets the local-pref bonus `from` applies to routes learned from `to`.
  /// No-op if the link does not exist.
  void set_local_pref_bonus(AsId from, AsId to, std::int8_t bonus);

  /// Registers an announced prefix and its member blocks for `as_id`,
  /// distributing blocks across the AS's PoPs. Returns the prefix index.
  std::uint32_t announce(AsId as_id, net::Prefix prefix);

  /// Appends one /24 under an announced prefix, homed at `pop`, and
  /// extends its AS's block range (an AS's blocks are added together).
  void add_block(net::Block24 block, AsId as_id, std::uint16_t pop,
                 std::uint32_t prefix_index);

  geo::GeoDatabase& geodb_mutable() { return geodb_; }

  // --- bulk block build (scale generator) ----------------------------------
  /// Pre-sizes blocks_ so set_block() may fill disjoint slices from
  /// parallel workers. Per-AS first_block/block_count must be assigned by
  /// the caller (via as_mutable).
  void begin_bulk_blocks(std::size_t total);

  /// Writes one pre-assigned block slot. Thread-safe for distinct indexes.
  void set_block(std::uint32_t index, const BlockInfo& info) {
    blocks_[index] = info;
  }

  /// Builds the block -> slot index in one pass over the blocks, in
  /// whatever order they were added. Both generators and the image
  /// loader end with it.
  void seal();

  /// Approximate heap footprint of the topology (adjacency, prefixes,
  /// blocks, indexes, geo database) — the scale benchmarks report this as
  /// bytes/AS.
  std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kNoBlockSlot = 0xffffffff;

  std::vector<AsNode> ases_;
  std::vector<AnnouncedPrefix> prefixes_;
  std::vector<BlockInfo> blocks_;
  std::unordered_map<std::uint32_t, AsId> by_asn_;
  // Direct-mapped block -> blocks_ slot over the allocated /24 span, built
  // by seal() (dense in practice; kNoBlockSlot marks holes). Replaces a
  // hash map that dominated both lookup latency and memory at 6.4M blocks.
  std::uint32_t block_first_ = 0;
  std::vector<std::uint32_t> block_slots_;
  geo::GeoDatabase geodb_;
};

}  // namespace vp::topology
