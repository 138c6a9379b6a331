// RFC 1071 Internet checksum, used by both the IPv4 header and ICMP.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace vp::net {

/// The RFC 1071 checksum of `data` (host order): the one's complement of
/// the one's-complement sum of its big-endian 16-bit words, an odd
/// trailing byte padded with zero. A buffer that carries its own correct
/// checksum sums to 0.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept;

}  // namespace vp::net
