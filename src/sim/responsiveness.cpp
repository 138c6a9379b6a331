#include "sim/responsiveness.hpp"

#include "util/rng.hpp"

namespace vp::sim {

ResponsivenessModel::ResponsivenessModel(const topology::Topology& topo,
                                         const ResponsivenessConfig& config)
    : topo_(&topo), config_(config) {
  for (std::size_t stream = 1; stream < stream_seeds_.size(); ++stream)
    stream_seeds_[stream] = util::hash_combine(config_.seed, stream);
}

std::uint64_t ResponsivenessModel::block_hash(net::Block24 block,
                                              std::size_t stream) const {
  return util::hash_combine(stream_seeds_[stream], block.index());
}

bool ResponsivenessModel::ever_responds(net::Block24 block) const {
  double rate = kBaseResponsiveRate;
  if (const auto* info = topo_->block_info(block)) {
    rate *= topo_->as_at(info->as_id).icmp_response_scale;
  } else {
    return false;  // unallocated space never replies
  }
  return util::to_unit(block_hash(block, /*stream=*/1)) < rate;
}

bool ResponsivenessModel::responds_in_round(net::Block24 block,
                                            std::uint32_t round) const {
  if (!ever_responds(block)) return false;
  const std::uint64_t h =
      util::hash_combine(block_hash(block, /*stream=*/2), round);
  return util::to_unit(h) >= kRoundDownRate;
}

ReplyBehavior ResponsivenessModel::behavior(net::Block24 block,
                                            std::uint32_t round) const {
  ReplyBehavior out;
  out.responds = responds_in_round(block, round);
  if (!out.responds) return out;
  const std::uint64_t h =
      util::hash_combine(block_hash(block, /*stream=*/3), round);
  // Slice independent uniforms out of one hash chain.
  util::Rng rng{h};
  if (rng.chance(kHeavyDuplicateRate)) {
    out.copies = static_cast<std::uint8_t>(8 + rng.below(56));
  } else if (rng.chance(kDuplicateRate)) {
    out.copies = 2;
  }
  out.alias = rng.chance(kAliasRate);
  out.late = rng.chance(kLateRate);
  return out;
}

std::uint8_t ResponsivenessModel::responsive_host(net::Block24 block) const {
  // Hosts cluster at low addresses; 1 + hash%250 avoids .0 and .255.
  return static_cast<std::uint8_t>(
      1 + block_hash(block, /*stream=*/4) % 250);
}

bool ResponsivenessModel::is_live_host(net::Block24 block,
                                       std::uint8_t host) const {
  if (host == responsive_host(block)) return true;
  const std::uint64_t h =
      util::hash_combine(block_hash(block, /*stream=*/5), host);
  return util::to_unit(h) < kSecondaryLiveRate;
}

}  // namespace vp::sim
