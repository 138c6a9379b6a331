#include "core/dataset_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "util/atomic_file.hpp"

namespace vp::core {

namespace {

/// Splits a CSV line at commas (our fields never contain commas/quotes).
std::vector<std::string_view> split_csv(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

std::optional<double> parse_double(std::string_view text) {
  double value = 0.0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  // from_chars accepts "nan"/"inf", which would sail through the
  // range checks below (NaN compares false to everything).
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

// --- buffered serialization ------------------------------------------------
// The writers never go through ostream formatting: the old per-row path
// (snprintf into a stack buffer + five operator<< calls per row) spent
// most of its time inside ostream's sentry/locale machinery. Byte
// fidelity: to_chars(fixed, p) and to_chars(general, p) are specified to
// format exactly as printf "%.pf" / "%.pg", so output is identical to
// the legacy writer (the dataset_io tests byte-compare both paths).
//
// The catchment rows go further. One row writer walks the map's pages
// and stores each row with raw pointer writes into a 64 KB chunk (octets
// from a table, ",CODE," from a per-call table, an ordinary RTT from
// integer cents), handing every full chunk to a sink in file order: the
// stream writer writes it, catchment_csv appends it to a string reserved
// up front. No row goes through std::string's checked appends, and no
// writer holds the whole file twice.

/// The decimal text of every octet value, so a block prefix costs three
/// table copies instead of three integer conversions.
struct OctetText {
  char digits[3];
  std::uint8_t size;
};

constexpr std::array<OctetText, 256> kOctetText = [] {
  std::array<OctetText, 256> table{};
  for (unsigned v = 0; v < table.size(); ++v) {
    OctetText& t = table[v];
    if (v >= 100) t.digits[t.size++] = static_cast<char>('0' + v / 100);
    if (v >= 10) t.digits[t.size++] = static_cast<char>('0' + v / 10 % 10);
    t.digits[t.size++] = static_cast<char>('0' + v % 10);
  }
  return table;
}();

/// Stores an octet's digits at `p`. Writes three bytes whatever the
/// length (the caller leaves room) and returns the end of the digits.
char* put_octet(char* p, std::uint32_t octet) {
  const OctetText& text = kOctetText[octet & 0xff];
  std::memcpy(p, text.digits, 3);
  return p + text.size;
}

/// "a.b.c.0/24" — what block.prefix().to_string() produces. At most
/// 16 bytes.
char* put_block(char* p, std::uint32_t index) {
  p = put_octet(p, index >> 16);
  *p++ = '.';
  p = put_octet(p, index >> 8);
  *p++ = '.';
  p = put_octet(p, index);
  std::memcpy(p, ".0/24", 5);
  return p + 5;
}

/// Longest text put_rtt stores: "-" and FLT_MAX's 39 integer digits
/// and ".00" need 43 bytes.
constexpr std::size_t kMaxRttText = 48;

/// printf "%.2f" of the widened float, at most kMaxRttText bytes.
char* put_rtt(char* p, float rtt_ms) {
  const double v = rtt_ms;
  // Values from 2^53 / 100 up (the reader admits RTTs up to FLT_MAX,
  // whose cents would overflow a uint64), negative values (-0.0
  // included), NaN and infinities keep to_chars.
  constexpr double kIntegerLimit = 0x1p53 / 100;
  if (std::signbit(v) || !(v < kIntegerLimit))
    return std::to_chars(p, p + kMaxRttText, v, std::chars_format::fixed, 2)
        .ptr;
  // A float times 100 is exact in a double (24 significand bits times
  // 100 need at most 31), so rounding it to an integer with nearbyint,
  // ties to even as to_chars rounds an exact tie, gives the very cents
  // to_chars(v, fixed, 2) prints.
  const auto cents = static_cast<std::uint64_t>(std::nearbyint(v * 100.0));
  p = std::to_chars(p, p + kMaxRttText, cents / 100).ptr;
  const auto fraction = static_cast<unsigned>(cents % 100);
  p[0] = '.';
  p[1] = static_cast<char>('0' + fraction / 10);
  p[2] = static_cast<char>('0' + fraction % 10);
  return p + 3;
}

constexpr std::string_view kCatchmentHeader = "block,site,rtt_ms\n";

/// Renders the catchment CSV of `map` in file order, handing it to
/// `sink(const char*, std::size_t)` one full 64 KB chunk at a time (the
/// last chunk partial). Sites index `deployment.sites`.
template <typename Sink>
void render_catchment_csv(const CatchmentMap& map,
                          const anycast::Deployment& deployment, Sink&& sink) {
  // ",CODE," per site, so a row stores its site with one copy.
  std::vector<std::string> site_text;
  site_text.reserve(deployment.sites.size());
  std::size_t longest = 0;
  for (const anycast::AnycastSite& site : deployment.sites) {
    site_text.push_back("," + site.code + ",");
    longest = std::max(longest, site_text.back().size());
  }
  // A row is a block, its site text, an RTT and a newline; a chunk is
  // flushed once fewer bytes than the longest row remain.
  const std::size_t max_row = 16 + longest + kMaxRttText + 1;
  constexpr std::size_t kChunk = std::size_t{64} << 10;
  const std::size_t capacity = std::max(kChunk, max_row);
  const auto chunk = std::make_unique_for_overwrite<char[]>(capacity);
  char* const flush_at = chunk.get() + (capacity - max_row);
  char* p = chunk.get();
  std::memcpy(p, kCatchmentHeader.data(), kCatchmentHeader.size());
  p += kCatchmentHeader.size();
  for (const CatchmentMap::PageView& page : map.pages()) {
    for (std::uint32_t slot = 0; slot < CatchmentMap::kSlots; ++slot) {
      const anycast::SiteId site = page.site[slot];
      if (site == anycast::kUnknownSite) continue;
      if (p > flush_at) {
        sink(chunk.get(), static_cast<std::size_t>(p - chunk.get()));
        p = chunk.get();
      }
      p = put_block(p, page.block(slot).index());
      const std::string& text = site_text[static_cast<std::size_t>(site)];
      std::memcpy(p, text.data(), text.size());
      p = put_rtt(p + text.size(), page.rtt[slot]);
      *p++ = '\n';
    }
  }
  sink(chunk.get(), static_cast<std::size_t>(p - chunk.get()));
}

/// printf "%.<precision>f".
void append_fixed(std::string& out, double v, int precision) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::fixed, precision);
  out.append(buf, static_cast<std::size_t>(end - buf));
}

/// printf "%.<precision>g".
void append_general(std::string& out, double v, int precision) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::general, precision);
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void build_load_csv(std::string& out,
                    std::span<const dnsload::BlockLoad> blocks) {
  out += "block,daily_queries,good_fraction\n";
  out.reserve(out.size() + blocks.size() * 40);
  for (const dnsload::BlockLoad& bl : blocks) {
    char block[16];
    out.append(block, put_block(block, bl.block.index()));
    out.push_back(',');
    append_general(out, bl.daily_queries, 6);
    out.push_back(',');
    append_fixed(out, static_cast<double>(bl.good_fraction), 4);
    out.push_back('\n');
  }
}

}  // namespace

void append_rtt(std::string& out, float rtt_ms) {
  char text[kMaxRttText];
  out.append(text, put_rtt(text, rtt_ms));
}

std::string catchment_csv(const RoundResult& round,
                          const anycast::Deployment& deployment) {
  std::string out;
  // ~27 bytes/row ("255.255.255.0/24,XXX,12.34\n"); headroom avoids the
  // doubling regrows on the big half of the fill.
  out.reserve(kCatchmentHeader.size() + round.map.mapped_blocks() * 28);
  render_catchment_csv(round.map, deployment,
                       [&out](const char* chunk, std::size_t size) {
                         out.append(chunk, size);
                       });
  return out;
}

void write_catchment_csv(std::ostream& out, const RoundResult& round,
                         const anycast::Deployment& deployment) {
  render_catchment_csv(round.map, deployment,
                       [&out](const char* chunk, std::size_t size) {
                         out.write(chunk, static_cast<std::streamsize>(size));
                       });
}

std::optional<RoundResult> read_catchment_csv(
    std::istream& in, const anycast::Deployment& deployment) {
  std::string line;
  if (!std::getline(in, line) || line != "block,site,rtt_ms")
    return std::nullopt;
  RoundResult round;
  round.raw_replies_per_site.assign(deployment.sites.size(), 0);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv(line);
    if (fields.size() != 3) return std::nullopt;
    const auto prefix = net::Prefix::parse(fields[0]);
    if (!prefix || prefix->length() != 24) return std::nullopt;
    const auto site = deployment.site_by_code(fields[1]);
    if (!site) return std::nullopt;
    // An RTT must fit a float: a larger one would overflow the cast and
    // come back out of the writer as "inf", which this reader refuses.
    const auto rtt = parse_double(fields[2]);
    if (!rtt || *rtt < 0 || *rtt > std::numeric_limits<float>::max())
      return std::nullopt;
    const net::Block24 block{prefix->base().value() >> 8};
    if (!round.map.set(block, *site, static_cast<float>(*rtt)))
      return std::nullopt;  // duplicate row
  }
  return round;
}

void write_load_csv(std::ostream& out,
                    std::span<const dnsload::BlockLoad> blocks) {
  std::string csv;
  build_load_csv(csv, blocks);
  out.write(csv.data(), static_cast<std::streamsize>(csv.size()));
}

void write_load_csv(std::ostream& out, const dnsload::LoadModel& load) {
  write_load_csv(out, load.blocks());
}

std::optional<LoadDataset> read_load_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) ||
      line != "block,daily_queries,good_fraction") {
    return std::nullopt;
  }
  LoadDataset dataset;
  std::unordered_set<net::Block24> seen;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv(line);
    if (fields.size() != 3) return std::nullopt;
    const auto prefix = net::Prefix::parse(fields[0]);
    const auto queries = parse_double(fields[1]);
    const auto good = parse_double(fields[2]);
    if (!prefix || prefix->length() != 24 || !queries || *queries < 0 ||
        !good || *good < 0 || *good > 1) {
      return std::nullopt;
    }
    dnsload::BlockLoad bl;
    bl.block = net::Block24{prefix->base().value() >> 8};
    // A repeated block would silently double-count into
    // total_daily_queries; reject, matching the catchment reader.
    if (!seen.insert(bl.block).second) return std::nullopt;
    bl.daily_queries = *queries;
    bl.good_fraction = static_cast<float>(*good);
    dataset.total_daily_queries += bl.daily_queries;
    dataset.blocks.push_back(bl);
  }
  return dataset;
}

bool save_catchment(const std::string& path, const RoundResult& round,
                    const anycast::Deployment& deployment) {
  return util::atomic_write_file(path, catchment_csv(round, deployment));
}

bool save_load_csv(const std::string& path, const dnsload::LoadModel& load) {
  std::string csv;
  build_load_csv(csv, load.blocks());
  return util::atomic_write_file(path, csv);
}

std::optional<RoundResult> load_catchment(
    const std::string& path, const anycast::Deployment& deployment) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return read_catchment_csv(in, deployment);
}

}  // namespace vp::core
