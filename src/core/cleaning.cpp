#include "core/cleaning.hpp"

#include <algorithm>

namespace vp::core {

namespace {

constexpr std::uint64_t kNoWinner = ~std::uint64_t{0};

/// A row's place in the runs: run index above, row index below.
std::uint64_t row_ref(std::size_t run, std::size_t row) {
  return static_cast<std::uint64_t>(run) << 32 | row;
}

/// Whether row `a` comes before row `b` in the cleaning order
/// (arrival, site, key, seq).
bool precedes(std::span<const ReplyRows> runs, std::uint64_t a,
              std::uint64_t b) {
  const ReplyRows& ra = runs[a >> 32];
  const ReplyRows& rb = runs[b >> 32];
  const std::size_t i = a & 0xffffffff, j = b & 0xffffffff;
  if (ra.arrival_usec[i] != rb.arrival_usec[j])
    return ra.arrival_usec[i] < rb.arrival_usec[j];
  if (ra.site[i] != rb.site[j]) return ra.site[i] < rb.site[j];
  if (ra.key[i] != rb.key[j]) return ra.key[i] < rb.key[j];
  return ra.seq[i] < rb.seq[j];
}

}  // namespace

void ReplyRows::restart() {
  const std::size_t last = size();
  arrival_usec.clear();
  tx_usec.clear();
  key.clear();
  source.clear();
  measurement_id.clear();
  seq.clear();
  site.clear();
  if (last > 0 && (basis_ == 0 || last > basis_ + basis_ / 4)) {
    basis_ = last;
    if (capacity() < last + last / 2) reserve(last + last / 2);
  }
}

void ReplyRows::reserve(std::size_t n) {
  arrival_usec.reserve(n);
  tx_usec.reserve(n);
  key.reserve(n);
  source.reserve(n);
  measurement_id.reserve(n);
  seq.reserve(n);
  site.reserve(n);
}

PageClean clean_pages(std::span<const ReplyRows> runs,
                      const CleanFilter& filter, std::uint32_t page_lo,
                      std::uint32_t page_hi, std::span<std::uint64_t> winners,
                      std::span<float> rtts, CatchmentMap& map) {
  // The pages' slots in the block-offset tables.
  const auto slot_of = [&filter](std::uint32_t page) {
    const std::uint64_t first = std::uint64_t{page} << 16;
    return static_cast<std::size_t>(
        std::clamp<std::uint64_t>(first, filter.block_lo,
                                  filter.block_lo + filter.block_span) -
        filter.block_lo);
  };
  const std::size_t slot_lo = slot_of(page_lo);
  const std::size_t slot_hi = slot_of(page_hi);
  std::fill(winners.begin() + slot_lo, winners.begin() + slot_hi, kNoWinner);

  PageClean out;
  CleaningStats& stats = out.stats;
  std::uint64_t survivors = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const ReplyRows& rows = runs[r];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::uint32_t source = rows.source[i];
      const std::uint32_t page = source >> 24;
      if (page < page_lo || page >= page_hi) continue;
      if (rows.measurement_id[i] != filter.measurement_id) {
        ++stats.wrong_id;
        continue;
      }
      if (rows.arrival_usec[i] > filter.cutoff_usec) {
        ++stats.late;
        continue;
      }
      const std::size_t off = static_cast<std::size_t>(
          (source >> 8) - filter.block_lo);  // wraps below block_lo
      if (off >= filter.block_span || filter.addr_by_block[off] != source) {
        ++stats.unsolicited;
        continue;
      }
      ++survivors;
      std::uint64_t& winner = winners[off];
      const std::uint64_t ref = row_ref(r, i);
      if (winner == kNoWinner || precedes(runs, ref, winner)) winner = ref;
    }
  }

  // Fill the pages in block order: one kept reply per winning block.
  std::size_t kept = 0;
  for (std::size_t off = slot_lo; off < slot_hi; ++off) {
    const std::uint64_t ref = winners[off];
    if (ref == kNoWinner) continue;
    const ReplyRows& rows = runs[ref >> 32];
    const std::size_t i = ref & 0xffffffff;
    const float rtt =
        static_cast<float>(rows.arrival_usec[i] - rows.tx_usec[i]) / 1000.0f;
    map.set(net::Block24{filter.block_lo + static_cast<std::uint32_t>(off)},
            rows.site[i], rtt);
    rtts[slot_lo + kept++] = rtt;
  }
  stats.kept = kept;
  stats.duplicates = survivors - kept;
  out.rtts = rtts.subspan(slot_lo, kept);
  return out;
}

}  // namespace vp::core
