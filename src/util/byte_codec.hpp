// Little-endian byte codec shared by the campaign journal
// (core/journal.cpp) and topology images (topology/topo_io.cpp).
//
// put_le appends one value as one chunk, never byte by byte, to a string
// or, when the caller has sized the record up front, stores it at a raw
// pointer: a round record at 1.46M blocks is ~11 MB of fixed-size
// fields, encoded in place once per campaign round. ByteReader reads the
// same layout back with every read bounds-checked; the first short read
// latches ok() false and later reads return zeros.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace vp::util {

/// Stores `value` at `out` in little-endian byte order; returns the byte
/// after it. The caller owns sizeof(T) bytes at `out`.
template <typename T>
  requires std::is_arithmetic_v<T>
char* put_le(char* out, T value) {
  std::memcpy(out, &value, sizeof(T));
  if constexpr (std::endian::native == std::endian::big)
    std::reverse(out, out + sizeof(T));
  return out + sizeof(T);
}

/// Appends `value` to `out` in little-endian byte order.
template <typename T>
  requires std::is_arithmetic_v<T>
void put_le(std::string& out, T value) {
  char bytes[sizeof(T)];
  put_le(bytes, value);
  out.append(bytes, sizeof(T));
}

/// Bounds-checked reader over little-endian bytes written by put_le.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  /// False once any read (or take) ran past the end.
  bool ok() const { return ok_; }
  /// Bytes not yet read.
  std::size_t left() const { return bytes_.size() - pos_; }

  /// Checks that `n` more bytes remain without consuming them, so a
  /// decoder can refuse a forged count before allocating for it. A
  /// failed check latches ok() false.
  bool take(std::size_t n) {
    if (ok_ && left() < n) ok_ = false;
    return ok_;
  }

  /// The next value, or T{} on a short read.
  template <typename T>
    requires std::is_arithmetic_v<T>
  T get() {
    if (!take(sizeof(T))) return T{};
    char bytes[sizeof(T)];
    std::memcpy(bytes, bytes_.data() + pos_, sizeof(T));
    if constexpr (std::endian::native == std::endian::big)
      std::reverse(bytes, bytes + sizeof(T));
    pos_ += sizeof(T);
    T value;
    std::memcpy(&value, bytes, sizeof(T));
    return value;
  }

  /// The next `n` bytes, or an empty view on a short read.
  std::string_view bytes(std::size_t n) {
    if (!take(n)) return {};
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace vp::util
