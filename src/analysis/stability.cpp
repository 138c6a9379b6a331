#include "analysis/stability.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace vp::analysis {

namespace {
double median_of(const std::vector<RoundTransition>& transitions,
                 std::uint64_t RoundTransition::* field) {
  std::vector<double> values;
  values.reserve(transitions.size());
  for (const auto& t : transitions)
    values.push_back(static_cast<double>(t.*field));
  return util::median(values);
}
}  // namespace

double StabilityReport::median_stable() const {
  return median_of(transitions, &RoundTransition::stable);
}
double StabilityReport::median_flipped() const {
  return median_of(transitions, &RoundTransition::flipped);
}
double StabilityReport::median_to_nr() const {
  return median_of(transitions, &RoundTransition::to_nr);
}
double StabilityReport::median_from_nr() const {
  return median_of(transitions, &RoundTransition::from_nr);
}

void StabilityAccumulator::add_round(const core::CatchmentMap& map) {
  if (have_previous_) {
    RoundTransition t;
    for (const auto& [block, prev_site] : previous_.entries()) {
      const anycast::SiteId cur_site = map.site_of(block);
      if (cur_site == anycast::kUnknownSite) {
        ++t.to_nr;
      } else if (cur_site == prev_site) {
        ++t.stable;
      } else {
        ++t.flipped;
        ++report_.total_flips;
        report_.unstable_blocks.insert(block.index());
        if (const auto* info = topo_->block_info(block)) {
          auto& acc = per_as_[topo_->as_at(info->as_id).asn.value];
          ++acc.flips;
          acc.blocks.insert(block.index());
        }
      }
    }
    for (const auto& [block, site] : map.entries()) {
      if (!previous_.contains(block)) ++t.from_nr;
    }
    report_.transitions.push_back(t);
  }
  previous_ = map;
  have_previous_ = true;
}

StabilityReport StabilityAccumulator::finish() {
  report_.flipping_ases = per_as_.size();
  report_.by_as.clear();
  report_.by_as.reserve(per_as_.size());
  for (const auto& [asn, acc] : per_as_) {
    AsFlipCount c;
    c.asn = asn;
    const topology::AsId id = topo_->find_as(topology::AsNumber{asn});
    if (id != topology::kNoAs) c.name = topo_->as_at(id).name;
    c.flips = acc.flips;
    c.flipping_blocks = acc.blocks.size();
    report_.by_as.push_back(std::move(c));
  }
  // Ties by ASN: per_as_'s hash order must not reach the report.
  std::sort(report_.by_as.begin(), report_.by_as.end(),
            [](const AsFlipCount& a, const AsFlipCount& b) {
              return a.flips != b.flips ? a.flips > b.flips : a.asn < b.asn;
            });
  return report_;
}

StabilityReport analyze_stability(
    const topology::Topology& topo,
    std::span<const core::RoundResult> rounds) {
  StabilityAccumulator accumulator{topo};
  for (const core::RoundResult& round : rounds)
    accumulator.add_round(round.map);
  return accumulator.finish();
}

}  // namespace vp::analysis
