#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

struct Fd {
  int fd;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

HttpResult http_get(std::uint16_t port, const std::string& target) {
  HttpResult result;
  Fd sock{::socket(AF_INET, SOCK_STREAM, 0)};
  if (sock.fd < 0) return result;
  const int one = 1;
  ::setsockopt(sock.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(sock.fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(sock.fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) != 0) {
    if (errno != EINTR) return result;
  }
  if (!send_all(sock.fd, "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"))
    return result;

  std::string raw;
  char buf[64 * 1024];
  std::size_t header_end = std::string::npos;
  std::size_t content_length = 0;
  for (;;) {
    const ssize_t n = ::recv(sock.fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return result;
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
    if (header_end == std::string::npos) {
      header_end = raw.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::size_t at = raw.find("Content-Length: ");
        if (at == std::string::npos || at > header_end) return result;
        content_length = std::strtoull(raw.c_str() + at + 16, nullptr, 10);
        raw.reserve(header_end + 4 + content_length);
      }
    }
    if (header_end != std::string::npos &&
        raw.size() >= header_end + 4 + content_length)
      break;
  }
  if (header_end == std::string::npos ||
      raw.size() != header_end + 4 + content_length || raw.size() < 12 ||
      raw.compare(0, 5, "HTTP/") != 0)
    return result;
  result.status = std::atoi(raw.c_str() + 9);
  result.body = raw.substr(header_end + 4);
  result.ok = true;
  return result;
}

}  // namespace perfbench
