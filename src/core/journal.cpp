#include "core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/byte_codec.hpp"
#include "util/rng.hpp"

namespace vp::core {

namespace {

using util::ByteReader;
using util::put_le;

constexpr std::uint8_t kManifestType = 1;
constexpr std::uint8_t kRoundType = 2;
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kFrameHeader = 8;  // payload_len:u32 + crc:u32

// ---- RoundResult <-> bytes --------------------------------------------

/// Everything a round payload holds before its two per-block sections.
std::string round_head(std::uint32_t round, const RoundResult& result) {
  std::string out;
  put_le(out, kRoundType);
  put_le(out, round);
  put_le(out, result.map.measurement_id);
  put_le(out, result.map.probes_sent);
  put_le(out, result.map.blocks_probed);
  const CleaningStats& c = result.map.cleaning;
  for (const std::uint64_t v : {c.raw_replies, c.malformed, c.wrong_id,
                                c.unsolicited, c.duplicates, c.late, c.kept})
    put_le(out, v);
  put_le(out, result.started.usec);
  put_le(out, result.probing_duration.usec);
  const sim::FaultStats& f = result.faults;
  for (const std::uint64_t v :
       {f.probes_lost, f.replies_generated, f.replies_lost, f.rate_limited,
        f.outage_drops, f.withdrawn, f.diverted, f.delayed, f.retries,
        f.recovered})
    put_le(out, v);
  put_le(out, static_cast<std::uint32_t>(result.raw_replies_per_site.size()));
  for (const std::uint64_t v : result.raw_replies_per_site) put_le(out, v);
  return out;
}

/// A round's payload behind `lead` bytes left for the caller. After the
/// head come the map section, a count and then (block:u32, site:u8) per
/// mapped block, and the RTT section, a count and then (block:u32,
/// rtt:f32) per mapped block, both in ascending block order. Every size
/// is known before the walk, so the buffer is allocated once at its
/// final size and one walk over the map's pages stores both sections at
/// their final offsets.
std::string encode_round_after(std::size_t lead, std::uint32_t round,
                               const RoundResult& result) {
  const std::string head = round_head(round, result);
  const auto mapped = static_cast<std::uint32_t>(result.map.mapped_blocks());
  constexpr std::size_t kSiteEntry = 4 + 1;
  constexpr std::size_t kRttEntry = 4 + 4;
  std::string out(lead + head.size() + 4 + std::size_t{mapped} * kSiteEntry +
                      4 + std::size_t{mapped} * kRttEntry,
                  '\0');
  char* const payload = out.data() + lead;
  std::memcpy(payload, head.data(), head.size());
  char* site_at = put_le(payload + head.size(), mapped);
  char* rtt_at = put_le(site_at + std::size_t{mapped} * kSiteEntry, mapped);
  for (const CatchmentMap::PageView& page : result.map.pages()) {
    for (std::uint32_t slot = 0; slot < CatchmentMap::kSlots; ++slot) {
      const anycast::SiteId site = page.site[slot];
      if (site == anycast::kUnknownSite) continue;
      const std::uint32_t block = page.block(slot).index();
      site_at = put_le(site_at, block);
      site_at = put_le(site_at, static_cast<std::uint8_t>(site));
      rtt_at = put_le(rtt_at, block);
      rtt_at = put_le(rtt_at, page.rtt[slot]);
    }
  }
  return out;
}

/// Fills a frame's header, its first kFrameHeader bytes, with the length
/// and CRC-32 of the payload behind it.
void seal_frame(std::string& frame) {
  const std::string_view payload = std::string_view{frame}.substr(kFrameHeader);
  char* const crc_at =
      put_le(frame.data(), static_cast<std::uint32_t>(payload.size()));
  put_le(crc_at, util::crc32(payload));
}

bool decode_result(ByteReader& in, std::size_t site_count,
                   RoundResult& result) {
  result.map.measurement_id = in.get<std::uint32_t>();
  result.map.probes_sent = in.get<std::uint64_t>();
  result.map.blocks_probed = in.get<std::uint64_t>();
  CleaningStats& c = result.map.cleaning;
  for (std::uint64_t* v : {&c.raw_replies, &c.malformed, &c.wrong_id,
                           &c.unsolicited, &c.duplicates, &c.late, &c.kept})
    *v = in.get<std::uint64_t>();
  result.started.usec = in.get<std::int64_t>();
  result.probing_duration.usec = in.get<std::int64_t>();
  sim::FaultStats& f = result.faults;
  for (std::uint64_t* v :
       {&f.probes_lost, &f.replies_generated, &f.replies_lost,
        &f.rate_limited, &f.outage_drops, &f.withdrawn, &f.diverted,
        &f.delayed, &f.retries, &f.recovered})
    *v = in.get<std::uint64_t>();
  // A CRC only proves the bytes are the ones written. The content checks
  // refuse what encode_result never writes — a site table of another
  // size than the deployment's, a site outside it, a block listed twice
  // in either section, an RTT for a block the map lacks, an RTT no
  // catchment CSV can carry (negative, NaN, infinite) — so a forged or
  // miscomputed record can never reach code that indexes the
  // deployment's sites by it.
  const std::uint32_t sites = in.get<std::uint32_t>();
  if (!in.ok() || sites != site_count) return false;
  result.raw_replies_per_site.resize(sites);
  for (std::uint32_t s = 0; s < sites; ++s)
    result.raw_replies_per_site[s] = in.get<std::uint64_t>();
  const std::uint32_t mapped = in.get<std::uint32_t>();
  if (!in.ok() || mapped > 1u << 24 || !in.take(std::size_t{mapped} * 5))
    return false;
  std::vector<std::pair<net::Block24, std::uint8_t>> sites_in(mapped);
  for (auto& [block, site] : sites_in) {
    block = net::Block24{in.get<std::uint32_t>()};
    site = in.get<std::uint8_t>();
    // Bytes 0x80..0xff would decode to negative site ids.
    if (site >= sites || site > std::numeric_limits<anycast::SiteId>::max())
      return false;
  }
  const std::uint32_t rtt_count = in.get<std::uint32_t>();
  if (!in.ok() || !in.take(std::size_t{rtt_count} * 8)) return false;
  std::vector<std::pair<net::Block24, float>> rtts_in(rtt_count);
  for (auto& [block, rtt] : rtts_in) {
    block = net::Block24{in.get<std::uint32_t>()};
    rtt = in.get<float>();
    if (!(rtt >= 0.0f && rtt <= std::numeric_limits<float>::max()))
      return false;
  }
  // Records written before the encoder went block-ordered list both
  // sections in hash-map order, so each block looks its RTT up in the
  // sorted RTT section.
  const auto block_of = [](const auto& entry) { return entry.first; };
  std::ranges::sort(rtts_in, {}, block_of);
  std::uint32_t joined = 0;
  for (const auto& [block, site] : sites_in) {
    const auto rtt = std::ranges::lower_bound(rtts_in, block, {}, block_of);
    const bool has_rtt = rtt != rtts_in.end() && rtt->first == block;
    joined += has_rtt ? 1 : 0;
    if (!result.map.set(block, static_cast<anycast::SiteId>(site),
                        has_rtt ? rtt->second : 0.0f))
      return false;  // the block is listed twice
  }
  // An RTT left over names a block the map lacks, or repeats one.
  return joined == rtt_count && in.ok() && in.left() == 0;
}

// ---- the kill-point hooks ----------------------------------------------

/// Test-only crash hook: VP_JOURNAL_CRASH_AT=k makes the k-th frame write
/// of this process (1-based, the manifest counts) die mid-write with exit
/// code 86. The cut point cycles with k so a kill-at-every-write sweep
/// exercises all three crash positions: k%3==1 writes nothing (crash
/// before the append), k%3==2 writes half a frame (torn tail), k%3==0
/// writes the whole frame (crash after a durable append).
std::atomic<int> g_frame_writes{0};

int crash_at_frame() {
  static const int k = [] {
    const char* env = std::getenv("VP_JOURNAL_CRASH_AT");
    return env ? std::atoi(env) : 0;
  }();
  return k;
}

/// Test-only I/O-failure hook: VP_JOURNAL_FAIL_AT=k makes every frame
/// write from the k-th on (1-based, same counter as the crash hook)
/// report failure without touching the file — the signature of a journal
/// directory going unwritable (disk full, volume remounted read-only)
/// mid-campaign. Unlike the crash hook the process survives, so tests
/// can assert the failure is *surfaced* (exit code 6) rather than frames
/// being silently dropped.
int fail_at_frame() {
  static const int k = [] {
    const char* env = std::getenv("VP_JOURNAL_FAIL_AT");
    return env ? std::atoi(env) : 0;
  }();
  return k;
}

bool write_frame(int fd, std::string_view frame) {
  const int crash_k = crash_at_frame();
  const int fail_k = fail_at_frame();
  if (crash_k > 0 || fail_k > 0) {
    const int n = ++g_frame_writes;
    if (n == crash_k) {
      std::size_t cut = frame.size();
      if (crash_k % 3 == 1) cut = 0;
      if (crash_k % 3 == 2) cut = frame.size() / 2;
      util::write_all(fd, frame.data(), cut);
      ::fsync(fd);
      ::_exit(86);
    }
    if (fail_k > 0 && n >= fail_k) return false;
  }
  return util::write_all(fd, frame.data(), frame.size()) &&
         ::fsync(fd) == 0;
}

// ---- journal parsing ---------------------------------------------------

struct Parsed {
  JournalStatus status = JournalStatus::kCorrupt;
  std::map<std::uint32_t, RoundResult> completed;
  std::uint64_t valid_bytes = 0;
};

/// Walks the frame sequence. A short frame at the tail is a torn append
/// (truncate there); a complete frame with a bad CRC or an undecodable
/// payload is corruption (refuse).
Parsed parse_journal(std::string_view data, const JournalManifest& expect) {
  Parsed out;
  std::size_t pos = 0;
  bool saw_manifest = false;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeader) break;  // torn header
    ByteReader header{data.substr(pos, kFrameHeader)};
    const std::uint32_t len = header.get<std::uint32_t>();
    const std::uint32_t crc = header.get<std::uint32_t>();
    if (data.size() - pos - kFrameHeader < len) break;  // torn payload
    const std::string_view payload = data.substr(pos + kFrameHeader, len);
    if (util::crc32(payload) != crc) {
      out.status = JournalStatus::kCorrupt;
      return out;
    }
    ByteReader in{payload};
    const std::uint8_t type = in.get<std::uint8_t>();
    if (!saw_manifest) {
      if (type != kManifestType ||
          in.get<std::uint32_t>() != kFormatVersion) {
        out.status = JournalStatus::kCorrupt;
        return out;
      }
      const std::uint64_t fingerprint = in.get<std::uint64_t>();
      const std::uint32_t rounds = in.get<std::uint32_t>();
      if (!in.ok() || in.left() != 0) {
        out.status = JournalStatus::kCorrupt;
        return out;
      }
      if (fingerprint != expect.fingerprint || rounds != expect.rounds) {
        out.status = JournalStatus::kFingerprintMismatch;
        return out;
      }
      saw_manifest = true;
    } else {
      if (type != kRoundType) {
        out.status = JournalStatus::kCorrupt;
        return out;
      }
      const std::uint32_t round = in.get<std::uint32_t>();
      RoundResult result;
      if (!in.ok() || round >= expect.rounds ||
          !decode_result(in, expect.site_count, result)) {
        out.status = JournalStatus::kCorrupt;
        return out;
      }
      // Duplicates can only be bit-identical re-appends (results are
      // deterministic); first wins.
      out.completed.emplace(round, std::move(result));
    }
    pos += kFrameHeader + len;
  }
  // A torn (or absent) manifest means no usable state: start fresh.
  out.status = saw_manifest ? JournalStatus::kResumed : JournalStatus::kFresh;
  out.valid_bytes = pos;
  return out;
}

}  // namespace

const char* to_string(JournalStatus status) {
  switch (status) {
    case JournalStatus::kDisabled: return "disabled";
    case JournalStatus::kFresh: return "fresh";
    case JournalStatus::kResumed: return "resumed";
    case JournalStatus::kFingerprintMismatch: return "fingerprint-mismatch";
    case JournalStatus::kCorrupt: return "corrupt";
    case JournalStatus::kIoError: return "io-error";
  }
  return "unknown";
}

std::string CampaignJournal::frame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeader + payload.size());
  out.resize(kFrameHeader);
  out.append(payload);
  seal_frame(out);
  return out;
}

std::string CampaignJournal::encode_manifest(const JournalManifest& manifest) {
  std::string payload;
  put_le(payload, kManifestType);
  put_le(payload, kFormatVersion);
  put_le(payload, manifest.fingerprint);
  put_le(payload, manifest.rounds);
  return payload;
}

std::string CampaignJournal::encode_round(std::uint32_t round,
                                          const RoundResult& result) {
  return encode_round_after(0, round, result);
}

CampaignJournal::OpenResult CampaignJournal::open(
    const std::string& path, const JournalManifest& manifest, bool resume) {
  close();
  OpenResult out;
  if (resume) {
    if (const std::optional<std::string> data = util::read_file(path)) {
      Parsed parsed = parse_journal(*data, manifest);
      if (parsed.status == JournalStatus::kFingerprintMismatch ||
          parsed.status == JournalStatus::kCorrupt) {
        out.status = parsed.status;  // refuse; file left untouched
        return out;
      }
      if (parsed.status == JournalStatus::kResumed) {
        if (parsed.valid_bytes < data->size() &&
            ::truncate(path.c_str(),
                       static_cast<off_t>(parsed.valid_bytes)) != 0) {
          out.status = JournalStatus::kIoError;
          return out;
        }
        fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
        if (fd_ < 0) {
          out.status = JournalStatus::kIoError;
          return out;
        }
        out.status = JournalStatus::kResumed;
        out.completed = std::move(parsed.completed);
        out.truncated_bytes = data->size() - parsed.valid_bytes;
        auto& registry = obs::metrics();
        registry.counter("vp_journal_rounds_loaded_total")
            .add(out.completed.size());
        registry.counter("vp_journal_truncated_bytes_total")
            .add(out.truncated_bytes);
        return out;
      }
      // kFresh: file exists but holds no usable manifest — recreate below.
    }
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd_ < 0) {
    out.status = JournalStatus::kIoError;
    return out;
  }
  if (!write_frame(fd_, frame(encode_manifest(manifest)))) {
    close();
    out.status = JournalStatus::kIoError;
    return out;
  }
  out.status = JournalStatus::kFresh;
  return out;
}

bool CampaignJournal::append_round(std::uint32_t round,
                                   const RoundResult& result) {
  if (fd_ < 0) return false;
  // The append span covers serialize + CRC + write + fsync — the whole
  // durability tax bench_journal prices against a round; the histogram
  // makes it visible on live campaigns too. The record is encoded in
  // place behind its frame header, in a buffer freed on return: the
  // daemon's journal lives as long as the process, and a buffer kept
  // between appends would hold a record (~11.5 MB at 881k mapped
  // blocks) for nothing.
  auto& registry = obs::metrics();
  obs::Span span{&registry.histogram("vp_journal_append_ms",
                                     obs::latency_buckets_ms())};
  std::string framed = encode_round_after(kFrameHeader, round, result);
  seal_frame(framed);
  if (!write_frame(fd_, framed)) {
    close();  // fail fast: never append past a hole
    return false;
  }
  registry.counter("vp_journal_appends_total").add();
  registry.counter("vp_journal_bytes_total").add(framed.size());
  return true;
}

void CampaignJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t probe_fingerprint(const ProbeConfig& probe) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t f = 0x70726f6265ULL;  // "probe"
  f = util::hash_combine(f, probe.measurement_id);
  // The constants and the retired extra-targets count (always 0) keep
  // their old slots, so every v1 journal keeps its fingerprint.
  f = util::hash_combine(f, bits(kProbeRatePps));
  f = util::hash_combine(f, bits(kLateCutoffMinutes));
  f = util::hash_combine(f, probe.order_seed);
  f = util::hash_combine(f, 0);
  f = util::hash_combine(
      f, static_cast<std::uint64_t>(
             static_cast<std::int64_t>(probe.max_retries)));
  f = util::hash_combine(f, bits(probe.probe_timeout_ms));
  f = util::hash_combine(f, bits(probe.retry_backoff_ms));
  f = util::hash_combine(f, bits(kRetryBackoffFactor));
  return f;
}

std::uint64_t fault_fingerprint(const sim::FaultInjector* faults) {
  if (faults == nullptr) return 0;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const sim::FaultPlan& plan = faults->plan();
  std::uint64_t f = 0x6661756c74ULL;  // "fault"
  f = util::hash_combine(f, plan.seed);
  for (const double rate :
       {plan.probe_loss_rate, plan.reply_loss_rate, plan.site_outage_rate,
        plan.outage_slice_minutes, plan.rate_limit_site_rate,
        plan.rate_limit_drop_rate, plan.churn_rate,
        plan.churn_withdraw_fraction, plan.delay_spike_rate,
        plan.delay_spike_mean_ms})
    f = util::hash_combine(f, bits(rate));
  return f;
}

}  // namespace vp::core
