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

  /// The block's geolocation record; nullptr for an unallocated or
  /// un-geolocatable block. Valid once seal() has indexed the blocks.
  const geo::GeoRecord* geo(net::Block24 block) const;
  std::size_t geo_count() const;

  /// Visits every geolocated (block, record) pair in ascending block
  /// order, through the block index.
  template <typename Fn>
  void for_each_geo(Fn&& fn) const {
    for (std::size_t off = 0; off < block_slots_.size(); ++off) {
      const std::uint32_t row = block_slots_[off];
      if (row != kNoBlockSlot && geo_set_[row])
        fn(net::Block24{block_first_ + static_cast<std::uint32_t>(off)},
           geo_[row]);
    }
  }

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

  /// Reserves room for `count` blocks, so adding them leaves no slack.
  void reserve_blocks(std::size_t count);

  /// Appends one /24 under an announced prefix, homed at `pop`, and
  /// extends its AS's block range (an AS's blocks are added together).
  /// The block has no geolocation until set_geo() gives it one.
  void add_block(net::Block24 block, AsId as_id, std::uint16_t pop,
                 std::uint32_t prefix_index);

  /// Geolocates blocks()[row]. Thread-safe for distinct rows.
  void set_geo(std::uint32_t row, const geo::GeoRecord& record) {
    geo_[row] = record;
    geo_set_[row] = 1;
  }

  // --- bulk block build (scale generator) ----------------------------------
  /// Pre-sizes the block rows so set_block() and set_geo() may fill
  /// disjoint slices from parallel workers. Per-AS first_block/block_count
  /// must be assigned by the caller (via as_mutable).
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
  /// blocks, block index, geo records) — the scale benchmarks report this
  /// as bytes/AS.
  std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kNoBlockSlot = 0xffffffff;

  std::vector<AsNode> ases_;
  std::vector<AnnouncedPrefix> prefixes_;
  std::vector<BlockInfo> blocks_;
  // Columns over blocks_' rows: the geo record and whether the block has
  // one (byte-wide, so parallel set_geo() calls do no bit RMW).
  std::vector<geo::GeoRecord> geo_;
  std::vector<std::uint8_t> geo_set_;
  std::unordered_map<std::uint32_t, AsId> by_asn_;
  // Direct-mapped block -> blocks_ slot over the allocated /24 span, built
  // by seal() (dense in practice; kNoBlockSlot marks holes). blocks_ and
  // its columns are all found through it.
  std::uint32_t block_first_ = 0;
  std::vector<std::uint32_t> block_slots_;
};

}  // namespace vp::topology
