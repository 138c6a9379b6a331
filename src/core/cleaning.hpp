// Central cleaning (paper §4): the reply rows of one round, reduced to at
// most one kept reply per /24 block.
//
// Every filter the paper names but one is a property of a single reply: a
// stale measurement id, an arrival after the cutoff, a source address that
// was never probed. The exception, "duplicate", keeps a block's FIRST
// surviving reply and drops the rest, where first means least under the
// strict total order (arrival, site, probe key, delivery seq) — the order
// the legacy pipeline's site-major concat + stable arrival sort produced.
// So the cleaned map is, per block, the minimum surviving row under that
// order, and duplicates = survivors − blocks kept. Neither depends on the
// order rows are scanned in: the cleaner needs no sort, and any number of
// workers can clean at once, each owning whole /8 pages of the map and
// reducing only the rows whose source block lies in them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "anycast/deployment.hpp"
#include "core/catchment.hpp"

namespace vp::core {

/// The replies one probe run collected, one row per delivery, as a
/// structure of arrays. `key` is the probe's global index in the round's
/// probe order and `seq` its per-probe delivery counter across attempts;
/// (key, seq) is unique per row, which makes the cleaning order total.
///
/// Aligned to a cache line (64 bytes, written out: GCC 12 warns on
/// std::hardware_destructive_interference_size): the engine keeps one per
/// run in a vector and workers claim consecutive runs, so unaligned
/// neighbours (176 bytes each) would share a line that two workers write
/// while pushing rows at the same time.
struct alignas(64) ReplyRows {
  std::vector<std::int64_t> arrival_usec;
  std::vector<std::int64_t> tx_usec;
  std::vector<std::uint64_t> key;
  std::vector<std::uint32_t> source;
  std::vector<std::uint32_t> measurement_id;
  std::vector<std::uint16_t> seq;
  std::vector<anycast::SiteId> site;

  std::size_t size() const { return arrival_usec.size(); }
  std::size_t capacity() const { return arrival_usec.capacity(); }

  void push(std::int64_t arrival, std::int64_t tx, std::uint64_t probe_key,
            std::uint32_t src, std::uint32_t mid, std::uint16_t delivery_seq,
            anycast::SiteId reply_site) {
    arrival_usec.push_back(arrival);
    tx_usec.push_back(tx);
    key.push_back(probe_key);
    source.push_back(src);
    measurement_id.push_back(mid);
    seq.push_back(delivery_seq);
    site.push_back(reply_site);
  }

  /// Empties the rows for the next round, keeping their capacity. A run
  /// probes the same blocks every round, so its row count barely moves:
  /// the first time a count is known, and again whenever one outgrows it
  /// by a quarter, the columns reserve half again that count, so that a
  /// steady-state round never grows a column mid-walk.
  void restart();

 private:
  void reserve(std::size_t n);

  std::size_t basis_ = 0;  // row count the last reservation was sized for
};

/// What a row must match to survive the per-reply filters.
struct CleanFilter {
  std::uint32_t measurement_id = 0;
  /// Rows arriving after this are late.
  std::int64_t cutoff_usec = 0;
  /// Probed blocks lie in [block_lo, block_lo + block_span); the winner
  /// and RTT tables clean_pages writes are indexed by block − block_lo.
  std::uint32_t block_lo = 0;
  std::size_t block_span = 0;
  /// The address probed in each block, indexed by block − block_lo
  /// (0 = none; a probed address is never 0).
  std::span<const std::uint32_t> addr_by_block;
};

/// One clean_pages call's output.
struct PageClean {
  /// wrong_id, late, unsolicited, duplicates and kept of the rows whose
  /// source lies in the pages (raw_replies and malformed stay 0: the
  /// collectors count those).
  CleaningStats stats;
  /// The kept replies' RTTs in block order, a prefix of the pages' slots
  /// of the `rtts` table.
  std::span<const float> rtts;
};

/// Cleans the rows of `runs` whose source block lies in /8 pages
/// [page_lo, page_hi): applies the per-reply filters, reduces the
/// survivors to each block's first reply, and maps those blocks in
/// ascending order. `winners` and `rtts` are block_span-slot scratch
/// tables; a call touches only its pages' slots of them and of `map`, so
/// calls for disjoint page ranges may run concurrently.
PageClean clean_pages(std::span<const ReplyRows> runs,
                      const CleanFilter& filter, std::uint32_t page_lo,
                      std::uint32_t page_hi, std::span<std::uint64_t> winners,
                      std::span<float> rtts, CatchmentMap& map);

}  // namespace vp::core
