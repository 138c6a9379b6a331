// The product of one Verfploeter measurement: block -> site and RTT.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ranges>
#include <utility>
#include <vector>

#include "anycast/deployment.hpp"
#include "net/ipv4.hpp"

namespace vp::core {

/// Counters from the data-cleaning pass (paper §4, "Data cleaning: we
/// remove ... duplicate results, replies from IP-addresses that we did not
/// send a request to, and late replies").
struct CleaningStats {
  std::uint64_t raw_replies = 0;   // everything collectors recorded
  std::uint64_t malformed = 0;     // failed parse/checksum at collectors
  std::uint64_t wrong_id = 0;      // stale measurement id (older round)
  std::uint64_t unsolicited = 0;   // source address we never probed
  std::uint64_t duplicates = 0;    // block already mapped this round
  std::uint64_t late = 0;          // arrived after the cutoff
  std::uint64_t kept = 0;          // survived all filters

  std::uint64_t dropped() const {
    return malformed + wrong_id + unsolicited + duplicates + late;
  }

  bool operator==(const CleaningStats&) const = default;
};

/// The catchment map measured by one round: for every /24 block, the site
/// its reply reached and that reply's round-trip time (paper §3–4; §7
/// suggests using the RTTs to decide where new sites would help).
///
/// Layout: one page per /8, allocated on its first write and never freed.
/// A page holds a 65,536-slot site column (kUnknownSite = unmapped) and a
/// parallel RTT column (0 where unmapped) — the block-offset idiom of
/// bgp::CatchmentResolver, without a covered range to size or grow.
/// Memory follows the /8s touched: 320 KB each, 80 MiB for all of them.
/// Because a page exists exactly when one of its blocks is mapped, two
/// maps holding the same entries hold the same pages, so equality is a
/// page-by-page compare that no insertion order can change.
class CatchmentMap {
 public:
  using Entry = std::pair<net::Block24, anycast::SiteId>;

  /// Site serving a block; kUnknownSite if the block did not map.
  anycast::SiteId site_of(net::Block24 block) const {
    const Page* page = pages_[block.index() >> kSlotBits].get();
    return page ? page->site[block.index() & kSlotMask] : anycast::kUnknownSite;
  }

  /// Measured RTT of a block's kept reply; 0 if the block did not map.
  float rtt_of(net::Block24 block) const {
    const Page* page = pages_[block.index() >> kSlotBits].get();
    return page ? page->rtt[block.index() & kSlotMask] : 0.0f;
  }

  bool contains(net::Block24 block) const {
    return site_of(block) != anycast::kUnknownSite;
  }

  /// Maps `block` to `site` with `rtt` unless the block is already mapped
  /// (the first write wins) or `site` is kUnknownSite. Returns whether it
  /// inserted.
  bool set(net::Block24 block, anycast::SiteId site, float rtt = 0.0f);

  std::size_t mapped_blocks() const;

  /// Bytes held by the allocated pages (320 KB per /8 touched).
  std::size_t bytes() const;

  /// Slots per page: a page covers one /8, indexed by a block's low 16
  /// bits.
  static constexpr std::uint32_t kSlotBits = 16;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;

  /// One allocated page: the /8 it covers and its site and RTT columns.
  struct PageView {
    std::uint32_t page;  // the first octet of its blocks
    std::uint32_t mapped;
    const anycast::SiteId* site;  // kSlots entries, kUnknownSite = unmapped
    const float* rtt;             // kSlots entries, 0 where unmapped

    net::Block24 block(std::uint32_t slot) const {
      return net::Block24{page << kSlotBits | slot};
    }
  };

  /// The allocated pages in ascending order, so a walk over each page's
  /// slots visits every mapped block in ascending block order. The export
  /// writers, the journal encoder and the drift diff read the columns
  /// straight from here.
  auto pages() const {
    return std::views::iota(std::uint32_t{0}, kPages) |
           std::views::filter(
               [this](std::uint32_t p) { return pages_[p] != nullptr; }) |
           std::views::transform([this](std::uint32_t p) {
             const Page& page = *pages_[p];
             return PageView{p, page.mapped, page.site.data(),
                             page.rtt.data()};
           });
  }

  /// Every mapped (block, site) in ascending block order.
  auto entries() const {
    return pages() | std::views::transform([](const PageView& page) {
             return std::views::iota(std::uint32_t{0}, kSlots) |
                    std::views::filter([page](std::uint32_t s) {
                      return page.site[s] != anycast::kUnknownSite;
                    }) |
                    std::views::transform([page](std::uint32_t s) {
                      return Entry{page.block(s), page.site[s]};
                    });
           }) |
           std::views::join;
  }

  /// Blocks per site; index = site id, one extra slot is NOT added for
  /// unknown (unmapped blocks are simply absent).
  std::vector<std::uint64_t> per_site_counts(std::size_t site_count) const;

  /// Fraction of mapped blocks served by `site`.
  double fraction_to(anycast::SiteId site) const;

  /// Exact: the same counters, sites and RTT bits.
  bool operator==(const CatchmentMap&) const = default;

  CleaningStats cleaning;
  std::uint64_t probes_sent = 0;
  std::uint64_t blocks_probed = 0;
  std::uint32_t measurement_id = 0;

 private:
  static constexpr std::uint32_t kSlotMask = kSlots - 1;
  static constexpr std::uint32_t kPages = 1u << (24 - kSlotBits);

  struct Page {
    std::array<anycast::SiteId, kSlots> site;
    std::array<float, kSlots> rtt;
    std::uint32_t mapped;  // slots whose site is set
  };

  /// Owns one page: copies it with the map and compares its bytes.
  struct PagePtr : std::unique_ptr<Page> {
    PagePtr() = default;
    PagePtr(const PagePtr& other)
        : std::unique_ptr<Page>(other ? std::make_unique<Page>(*other)
                                      : nullptr) {}
    PagePtr(PagePtr&&) noexcept = default;
    PagePtr& operator=(const PagePtr& other) { return *this = PagePtr(other); }
    PagePtr& operator=(PagePtr&&) noexcept = default;
    friend bool operator==(const PagePtr& a, const PagePtr& b) {
      return a && b ? std::memcmp(a.get(), b.get(), sizeof(*a)) == 0
                    : a.get() == b.get();
    }
  };

  std::array<PagePtr, kPages> pages_;
};

}  // namespace vp::core
