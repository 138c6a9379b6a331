// Crash-safe file replacement and CRC32 integrity checking.
//
// Every durable artifact the system writes (catchment CSVs, load
// exports, campaign journals) must survive a crash at any instruction:
// either the old file is intact or the new one is, never a torn mix.
// atomic_write_file() gives that guarantee the classic POSIX way —
// write to a sibling temp file, fsync it, rename() over the target,
// fsync the directory — and the journal layer (core/journal.hpp) frames
// its append-only records with the CRC32 implemented here. read_file() is
// the one whole-file reader (topology images, journals on resume).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vp::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte range.
/// Chain calls by passing the previous return value as `seed`.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

/// write()s the whole buffer to `fd`, riding out short writes and EINTR.
/// False on any other write error.
bool write_all(int fd, const char* data, std::size_t size);

/// Atomically replaces `path` with `contents`: writes `path.tmp.<pid>`,
/// fsyncs it, rename()s it over `path`, then fsyncs the directory so the
/// rename itself is durable. A crash at any point leaves either the old
/// file or the new one, never a truncated or interleaved mix. Returns
/// false (and removes the temp file) on any I/O failure.
bool atomic_write_file(const std::string& path, std::string_view contents);

/// The whole file at `path`, read into one string sized from the file up
/// front. nullopt when the file cannot be opened; a read that fails part
/// way yields the bytes read until then.
std::optional<std::string> read_file(const std::string& path);

}  // namespace vp::util
