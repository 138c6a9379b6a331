#include "hitlist/hitlist.hpp"

#include <optional>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vp::hitlist {

namespace {
/// Entry for one block, or nullopt when the block is missing from the
/// hitlist. A pure function of (config, block), which is what makes the
/// parallel build order-independent.
std::optional<Entry> make_entry(const topology::BlockInfo& info,
                                const sim::ResponsivenessModel& responsiveness,
                                const HitlistConfig& config) {
  const std::uint64_t h = util::hash_combine(
      util::hash_combine(config.seed, 0xb10c), info.block.index());
  if (util::to_unit(h) < kMissingBlockRate) return std::nullopt;
  std::uint8_t host = responsiveness.responsive_host(info.block);
  const std::uint64_t h2 = util::hash_combine(h, 0x57a1e);
  if (util::to_unit(h2) < kStaleEntryRate) {
    // Stale entry: the census-era host is gone; point somewhere else.
    host = static_cast<std::uint8_t>(1 + (host + 1 + h2 % 248) % 250);
  }
  return Entry{info.block, info.block.address(host)};
}
}  // namespace

Hitlist Hitlist::build(const topology::Topology& topo,
                       const sim::ResponsivenessModel& responsiveness,
                       const HitlistConfig& config, unsigned threads) {
  Hitlist out;
  const std::span<const topology::BlockInfo> blocks = topo.blocks();
  // Each shard fills a private vector over a contiguous block range;
  // splicing the parts in range order gives the same list for any shard
  // count (per-block decisions are stateless hashes, and the
  // responsiveness model is documented const + pure). One shard runs
  // inline, and small lists are not worth a thread.
  const unsigned n =
      blocks.size() < 4096 ? 1 : util::resolve_threads(threads);
  std::vector<std::vector<Entry>> parts(n);
  util::run_shards(n, [&](unsigned shard) {
    const std::size_t lo = blocks.size() * shard / n;
    const std::size_t hi = blocks.size() * (shard + 1) / n;
    auto& part = parts[shard];
    part.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      if (const auto entry = make_entry(blocks[i], responsiveness, config))
        part.push_back(*entry);
    }
  });
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.entries_ = std::move(parts[0]);
  out.entries_.reserve(total);
  for (unsigned shard = 1; shard < n; ++shard)
    out.entries_.insert(out.entries_.end(), parts[shard].begin(),
                        parts[shard].end());
  return out;
}

std::uint32_t Hitlist::crc32() const {
  std::uint32_t crc = 0;
  for (const Entry& entry : entries_) {
    const std::uint32_t words[2] = {entry.block.index(),
                                    entry.target.value()};
    crc = util::crc32(words, sizeof(words), crc);
  }
  return crc;
}

void Hitlist::probe_order_into(std::uint64_t round_seed,
                               std::vector<std::uint32_t>& out) const {
  out.resize(entries_.size());
  for (std::uint32_t i = 0; i < out.size(); ++i) out[i] = i;
  util::Rng rng{round_seed};
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.below(i)]);
}

}  // namespace vp::hitlist
