// Wire-format IPv4 + ICMP echo packets.
//
// The probe pipeline works on real packet bytes end-to-end, like the
// original Verfploeter: the prober writes an ICMP Echo Request inside an
// IPv4 header, the simulated Internet delivers the raw bytes, hosts parse
// them and emit Echo Replies, and per-site collectors parse the replies.
// Every field crossing the "network" is written to and parsed from the
// wire with checksums validated, so the parsing code is tested under the
// same adversarial conditions a real deployment sees (truncation,
// corruption, duplicate and unsolicited replies). The builders store each
// field straight into a reused, fixed-size buffer; nothing is appended.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ipv4.hpp"
#include "util/clock.hpp"

namespace vp::net {

/// IPv4 protocol numbers we care about.
enum class IpProtocol : std::uint8_t {
  kIcmp = 1,
  kUdp = 17,
};

/// A 20-byte IPv4 header (no options), RFC 791.
struct Ipv4Header {
  static constexpr std::size_t kSize = 20;

  std::uint8_t ttl = 64;
  IpProtocol protocol = IpProtocol::kIcmp;
  Ipv4Address source;
  Ipv4Address destination;
  std::uint16_t identification = 0;
  std::uint16_t total_length = kSize;

  /// Parses and checksum-validates a header from the front of `data`.
  static std::optional<Ipv4Header> parse(std::span<const std::uint8_t> data);
};

/// ICMP message types used by the prober.
enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestinationUnreachable = 3,
  kEchoRequest = 8,
  kTimeExceeded = 11,
};

/// Verfploeter's probe payload. The original tool embeds enough state in
/// the echo payload to (a) associate replies with a measurement round and
/// (b) detect hosts replying from a different address than probed (§4,
/// "data cleaning"). We mirror that: a magic tag, the measurement id, the
/// transmit timestamp, and the original target address.
struct ProbePayload {
  static constexpr std::uint32_t kMagic = 0x56504c54;  // "VPLT"
  static constexpr std::size_t kSize = 20;

  std::uint32_t measurement_id = 0;
  std::int64_t tx_time_usec = 0;
  Ipv4Address original_target;

  static std::optional<ProbePayload> parse(std::span<const std::uint8_t> data);
};

/// An ICMP echo request/reply (8-byte header + payload, RFC 792) whose
/// payload is a view into the containing packet.
struct IcmpEchoView {
  static constexpr std::size_t kHeaderSize = 8;

  IcmpType type = IcmpType::kEchoRequest;
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;
  std::span<const std::uint8_t> payload;
};

/// Parses and checksum-validates an ICMP echo from `data`. The view
/// borrows `data` and must not outlive it.
std::optional<IcmpEchoView> parse_icmp_echo_view(
    std::span<const std::uint8_t> data);

/// Builds the raw bytes of an ICMP Echo Request probe into a reused buffer
/// (resized to the frame, every byte overwritten), so a steady-state round
/// never allocates per probe.
void build_echo_request_into(std::vector<std::uint8_t>& out,
                             Ipv4Address source, Ipv4Address destination,
                             std::uint16_t identifier, std::uint16_t sequence,
                             const ProbePayload& payload);

/// Builds an Echo Reply for a parsed request into a reused buffer (resized
/// to the frame, every byte overwritten), echoing the payload verbatim (as
/// RFC 792 requires), optionally from a different source address.
/// `request_icmp.payload` must not point into `out`.
void build_echo_reply_into(std::vector<std::uint8_t>& out,
                           const Ipv4Header& request_ip,
                           const IcmpEchoView& request_icmp,
                           Ipv4Address reply_source);

/// A parsed probe reply as seen by a site's collector.
struct ParsedReplyView {
  Ipv4Header ip;
  IcmpEchoView icmp;
  ProbePayload probe;
};

/// Parses and validates a full reply packet; nullopt if any layer is
/// malformed, the checksum fails, or the payload lacks the probe magic.
/// The view borrows `data` and must not outlive it.
std::optional<ParsedReplyView> parse_reply_view(
    std::span<const std::uint8_t> data);

}  // namespace vp::net
