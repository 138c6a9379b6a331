// A hand-made round for the byte pins of the map exports
// (dataset_io_test: catchment_csv and write_catchment_csv;
// journal_test: encode_round). It holds what a page walk must get
// right: over 5,000 rows on four /8 pages (so the CSV passes 64 KB),
// the first and last slot of a page, every site of a nine-site
// deployment whose last code is longer than three characters, and RTTs
// on both of append_rtt's paths.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "anycast/deployment.hpp"
#include "core/round.hpp"
#include "topology/topology.hpp"

namespace vp::export_pin {

/// Tangled's nine sites, the last one renamed to a six-character code.
inline anycast::Deployment nine_site_deployment() {
  const topology::Topology empty;
  anycast::Deployment deployment = anycast::make_tangled(empty);
  deployment.sites.back().code = "CPH-DK";
  return deployment;
}

/// The pinned round. With `csv_only_rtts`, five blocks carry RTTs only
/// the CSV writer takes (-0.0, -1.5, NaN, +inf, -inf): the journal
/// decoder refuses negative and non-finite RTTs, so the journal pins
/// leave them out.
inline core::RoundResult pinned_export_round(bool csv_only_rtts) {
  core::RoundResult round;
  round.map.measurement_id = 7001;
  round.map.probes_sent = 6'400;
  round.map.blocks_probed = 6'300;
  round.map.cleaning = {6200, 1, 2, 3, 4, 5, 6185};
  round.raw_replies_per_site = {700, 701, 702, 703, 704, 705, 706, 707, 708};
  round.started = util::SimTime::from_minutes(45);
  round.probing_duration = util::SimTime::from_seconds(0.64);
  round.faults.probes_lost = 31;
  round.faults.retries = 32;
  // The edge blocks go first, so no hashed slot below takes them.
  // Slot 0 and slot 65,535 of pages 0x0a and 0xff.
  round.map.set(net::Block24{0x0a0000}, 3, 1.005f);
  round.map.set(net::Block24{0x0affff}, 8, 0.0f);
  round.map.set(net::Block24{0xff0000}, 8, 9.995f);
  round.map.set(net::Block24{0xffffff}, 4, 250.5f);
  // Where append_rtt hands over to to_chars.
  round.map.set(net::Block24{0x7f0001}, 2, std::numeric_limits<float>::max());
  round.map.set(net::Block24{0x7f0002}, 5, static_cast<float>(0x1p53 / 100));
  if (csv_only_rtts) {
    const float inf = std::numeric_limits<float>::infinity();
    round.map.set(net::Block24{0x7f0003}, 6, -0.0f);
    round.map.set(net::Block24{0x7f0004}, 7, -1.5f);
    round.map.set(net::Block24{0x7f0005}, 8,
                  std::numeric_limits<float>::quiet_NaN());
    round.map.set(net::Block24{0x7f0006}, 0, inf);
    round.map.set(net::Block24{0x7f0007}, 1, -inf);
  }
  constexpr std::uint32_t kPages[] = {0x00, 0x0a, 0x7f, 0xff};
  for (std::uint32_t i = 0; i < 6'000; ++i) {
    const std::uint32_t page = kPages[i % 4];
    // A multiplicative hash spreads the slots over the whole page.
    const std::uint32_t slot = (i * 2654435761u) >> 16;
    const auto site = static_cast<anycast::SiteId>(i % 9);
    // Eighths hit to_chars' exact ties; the rest are ordinary floats
    // from sub-millisecond to ~2 s.
    const float rtt = i % 3 == 0 ? static_cast<float>(i) * 0.125f
                                 : static_cast<float>(i % 2000) * 0.37f +
                                       0.004f * static_cast<float>(i % 7);
    round.map.set(net::Block24{page << 16 | slot}, site, rtt);
  }
  return round;
}

}  // namespace vp::export_pin
