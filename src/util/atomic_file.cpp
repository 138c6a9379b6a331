#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <memory>

namespace vp::util {

namespace {

/// Slice-by-8 lookup tables (table[0] is the classic byte-at-a-time
/// table; table[k] advances a byte seen k positions earlier). Eight
/// bytes per iteration keeps CRC well under the per-round fsync cost —
/// the journal checksums ~0.4 MB per round, twice (frame + resume).
const std::array<std::array<std::uint32_t, 256>, 8>& crc32_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0u);
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (std::size_t k = 1; k < 8; ++k)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
  }();
  return tables;
}

/// fsync the directory containing `path` so a completed rename survives
/// power loss. Best effort: some filesystems refuse O_RDONLY on dirs.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string{"."}
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = crc32_tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  while (size >= 8) {
    const std::uint32_t lo = crc ^ (std::uint32_t{bytes[0]} |
                                    std::uint32_t{bytes[1]} << 8 |
                                    std::uint32_t{bytes[2]} << 16 |
                                    std::uint32_t{bytes[3]} << 24);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][bytes[4]] ^ t[2][bytes[5]] ^ t[1][bytes[6]] ^
          t[0][bytes[7]];
    bytes += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i)
    crc = (crc >> 8) ^ t[0][(crc ^ bytes[i]) & 0xFF];
  return crc ^ 0xFFFFFFFFu;
}

bool atomic_write_file(const std::string& path, std::string_view contents) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool written = write_all(fd, contents.data(), contents.size()) &&
                       ::fsync(fd) == 0;
  if (::close(fd) != 0 || !written ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  const auto close = [](std::FILE* f) { std::fclose(f); };
  const std::unique_ptr<std::FILE, decltype(close)> file{
      std::fopen(path.c_str(), "rb"), close};
  if (!file) return std::nullopt;
  // One byte past the file's size, so a regular file ends on a read of 0
  // without growing the string; a pipe (size 0) grows it as it goes.
  struct stat st {};
  const bool sized =
      ::fstat(::fileno(file.get()), &st) == 0 && st.st_size > 0;
  std::string data(sized ? static_cast<std::size_t>(st.st_size) + 1 : 65536,
                   '\0');
  std::size_t got = 0;
  for (;;) {
    if (got == data.size()) data.resize(2 * got);
    const std::size_t n =
        std::fread(data.data() + got, 1, data.size() - got, file.get());
    if (n == 0) break;
    got += n;
  }
  data.resize(got);
  return data;
}

}  // namespace vp::util
