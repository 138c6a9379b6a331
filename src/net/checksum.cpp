#include "net/checksum.hpp"

#include <bit>
#include <cstring>

namespace vp::net {

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept {
  // RFC 1071 §2(B): the one's-complement sum does not depend on byte
  // order, so sum native 32-bit words (2^16 = 1 in one's complement, and
  // a 64-bit accumulator cannot overflow below 2^32 words), fold to 16
  // bits and swap the folded sum into network order. Folding keeps the
  // two zeros apart: only an all-zero buffer folds to 0x0000, any other
  // sum that is 0 mod 0xFFFF folds to 0xFFFF, exactly as the byte-wise
  // definition does, and the swap maps each of them to itself.
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t sum = 0;
  for (; n >= 4; p += 4, n -= 4) {
    std::uint32_t word;
    std::memcpy(&word, p, sizeof word);
    sum += word;
  }
  if (n > 0) {
    // The 1-3 tail bytes, zero-padded to a whole word in network order.
    std::uint8_t tail[4] = {};
    std::memcpy(tail, p, n);
    std::uint32_t word;
    std::memcpy(&word, tail, sizeof word);
    sum += word;
  }
  sum = (sum & 0xffffffff) + (sum >> 32);
  sum = (sum & 0xffffffff) + (sum >> 32);
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  auto folded = static_cast<std::uint16_t>(sum);
  if constexpr (std::endian::native == std::endian::little)
    folded = static_cast<std::uint16_t>((folded << 8) | (folded >> 8));
  return static_cast<std::uint16_t>(~folded);
}

}  // namespace vp::net
