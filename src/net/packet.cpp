#include "net/packet.hpp"

#include <cstring>

#include "net/checksum.hpp"

namespace vp::net {
namespace {

void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  store_u16(p, static_cast<std::uint16_t>(v >> 16));
  store_u16(p + 2, static_cast<std::uint16_t>(v));
}

void store_u64(std::uint8_t* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v >> 32));
  store_u32(p + 4, static_cast<std::uint32_t>(v));
}

std::uint16_t get_u16(std::span<const std::uint8_t> d, std::size_t at) {
  return static_cast<std::uint16_t>((std::uint16_t{d[at]} << 8) | d[at + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> d, std::size_t at) {
  return (std::uint32_t{get_u16(d, at)} << 16) | get_u16(d, at + 2);
}

std::uint64_t get_u64(std::span<const std::uint8_t> d, std::size_t at) {
  return (std::uint64_t{get_u32(d, at)} << 32) | get_u32(d, at + 4);
}

}  // namespace

std::optional<Ipv4Header> Ipv4Header::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  if (data[0] != 0x45) return std::nullopt;  // require v4, no options
  if (internet_checksum(data.first(kSize)) != 0) return std::nullopt;
  Ipv4Header h;
  h.total_length = get_u16(data, 2);
  h.identification = get_u16(data, 4);
  h.ttl = data[8];
  h.protocol = static_cast<IpProtocol>(data[9]);
  h.source = Ipv4Address{get_u32(data, 12)};
  h.destination = Ipv4Address{get_u32(data, 16)};
  if (h.total_length < kSize) return std::nullopt;
  return h;
}

std::optional<ProbePayload> ProbePayload::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  if (get_u32(data, 0) != kMagic) return std::nullopt;
  ProbePayload p;
  p.measurement_id = get_u32(data, 4);
  p.tx_time_usec = static_cast<std::int64_t>(get_u64(data, 8));
  p.original_target = Ipv4Address{get_u32(data, 16)};
  return p;
}

std::optional<IcmpEchoView> parse_icmp_echo_view(
    std::span<const std::uint8_t> data) {
  if (data.size() < IcmpEchoView::kHeaderSize) return std::nullopt;
  if (internet_checksum(data) != 0) return std::nullopt;
  IcmpEchoView m;
  m.type = static_cast<IcmpType>(data[0]);
  if (m.type != IcmpType::kEchoRequest && m.type != IcmpType::kEchoReply)
    return std::nullopt;
  if (data[1] != 0) return std::nullopt;  // echo code must be 0
  m.identifier = get_u16(data, 4);
  m.sequence = get_u16(data, 6);
  m.payload = data.subspan(IcmpEchoView::kHeaderSize);
  return m;
}

namespace {

/// Stores the 20-byte header `ip` (v4, no options, DF) at `p`, checksum
/// included.
void store_ipv4_header(std::uint8_t* p, const Ipv4Header& ip) {
  p[0] = 0x45;  // version 4, IHL 5
  p[1] = 0x00;  // DSCP/ECN
  store_u16(p + 2, ip.total_length);
  store_u16(p + 4, ip.identification);
  store_u16(p + 6, 0x4000);  // flags: DF, fragment offset 0
  p[8] = ip.ttl;
  p[9] = static_cast<std::uint8_t>(ip.protocol);
  store_u16(p + 10, 0);  // checksum, computed over the header below
  store_u32(p + 12, ip.source.value());
  store_u32(p + 16, ip.destination.value());
  store_u16(p + 10, internet_checksum({p, Ipv4Header::kSize}));
}

/// Stores an ICMP echo header at `p` and checksums it together with the
/// `payload_size` payload bytes already stored behind it.
void store_icmp_echo_header(std::uint8_t* p, IcmpType type,
                            std::uint16_t identifier, std::uint16_t sequence,
                            std::size_t payload_size) {
  p[0] = static_cast<std::uint8_t>(type);
  p[1] = 0;              // code
  store_u16(p + 2, 0);   // checksum, computed over header + payload below
  store_u16(p + 4, identifier);
  store_u16(p + 6, sequence);
  store_u16(p + 2, internet_checksum(
                       {p, IcmpEchoView::kHeaderSize + payload_size}));
}

}  // namespace

void build_echo_request_into(std::vector<std::uint8_t>& out,
                             Ipv4Address source, Ipv4Address destination,
                             std::uint16_t identifier, std::uint16_t sequence,
                             const ProbePayload& payload) {
  Ipv4Header ip;
  ip.protocol = IpProtocol::kIcmp;
  ip.source = source;
  ip.destination = destination;
  ip.identification = sequence;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + IcmpEchoView::kHeaderSize + ProbePayload::kSize);
  out.resize(ip.total_length);
  std::uint8_t* icmp = out.data() + Ipv4Header::kSize;
  std::uint8_t* probe = icmp + IcmpEchoView::kHeaderSize;
  store_u32(probe, ProbePayload::kMagic);
  store_u32(probe + 4, payload.measurement_id);
  store_u64(probe + 8, static_cast<std::uint64_t>(payload.tx_time_usec));
  store_u32(probe + 16, payload.original_target.value());
  store_icmp_echo_header(icmp, IcmpType::kEchoRequest, identifier, sequence,
                         ProbePayload::kSize);
  store_ipv4_header(out.data(), ip);
}

void build_echo_reply_into(std::vector<std::uint8_t>& out,
                           const Ipv4Header& request_ip,
                           const IcmpEchoView& request_icmp,
                           Ipv4Address reply_source) {
  Ipv4Header ip;
  ip.protocol = IpProtocol::kIcmp;
  ip.source = reply_source;
  ip.destination = request_ip.source;
  ip.identification = request_icmp.sequence;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize +
                                               IcmpEchoView::kHeaderSize +
                                               request_icmp.payload.size());
  out.resize(ip.total_length);
  std::uint8_t* icmp = out.data() + Ipv4Header::kSize;
  if (!request_icmp.payload.empty())
    std::memcpy(icmp + IcmpEchoView::kHeaderSize,
                request_icmp.payload.data(), request_icmp.payload.size());
  store_icmp_echo_header(icmp, IcmpType::kEchoReply, request_icmp.identifier,
                         request_icmp.sequence, request_icmp.payload.size());
  store_ipv4_header(out.data(), ip);
}

std::optional<ParsedReplyView> parse_reply_view(
    std::span<const std::uint8_t> data) {
  const auto ip = Ipv4Header::parse(data);
  if (!ip || ip->protocol != IpProtocol::kIcmp) return std::nullopt;
  if (data.size() < ip->total_length) return std::nullopt;
  const auto icmp = parse_icmp_echo_view(
      data.subspan(Ipv4Header::kSize, ip->total_length - Ipv4Header::kSize));
  if (!icmp || icmp->type != IcmpType::kEchoReply) return std::nullopt;
  const auto probe = ProbePayload::parse(icmp->payload);
  if (!probe) return std::nullopt;
  return ParsedReplyView{*ip, *icmp, *probe};
}

}  // namespace vp::net
