#include "net/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace vp::net {

namespace {

/// One budget for a connection's whole request, counted from accept. A
/// per-recv timeout alone would let a client that trickles a byte just
/// inside it hold the only serving thread for 16 KiB x that timeout.
constexpr std::chrono::milliseconds kRequestDeadline{5000};
constexpr std::size_t kMaxRequestBytes = 16 * 1024;

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Socket send that survives EINTR and partial writes.
bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

std::string url_decode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < text.size() &&
               hex_digit(text[i + 1]) >= 0 && hex_digit(text[i + 2]) >= 0) {
      out.push_back(static_cast<char>(hex_digit(text[i + 1]) * 16 +
                                      hex_digit(text[i + 2])));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

bool parse_http_request(std::string_view request_text, HttpRequest& out) {
  const std::size_t line_end = request_text.find("\r\n");
  std::string_view line =
      line_end == std::string_view::npos ? request_text
                                         : request_text.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  out.method = std::string{line.substr(0, sp1)};
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return false;
  const std::size_t q = target.find('?');
  out.path = url_decode(target.substr(0, q));
  out.query.clear();
  if (q != std::string_view::npos) {
    std::string_view rest = target.substr(q + 1);
    while (!rest.empty()) {
      const std::size_t amp = rest.find('&');
      const std::string_view pair = rest.substr(0, amp);
      const std::size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        if (!pair.empty()) out.query[url_decode(pair)] = "";
      } else {
        out.query[url_decode(pair.substr(0, eq))] =
            url_decode(pair.substr(eq + 1));
      }
      if (amp == std::string_view::npos) break;
      rest.remove_prefix(amp + 1);
    }
  }
  return true;
}

std::string render_http_head(const HttpResponse& response) {
  const char* reason = "OK";
  switch (response.status) {
    case 200: reason = "OK"; break;
    case 400: reason = "Bad Request"; break;
    case 404: reason = "Not Found"; break;
    case 503: reason = "Service Unavailable"; break;
    default: reason = "Status"; break;
  }
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    reason + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body_view().size()) +
         "\r\n";
  out += "Connection: close\r\n\r\n";
  return out;
}

bool HttpServer::start(std::uint16_t port, HttpHandler handler) {
  stop();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return false;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  handler_ = std::move(handler);
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread{[this] { serve_loop(); }};
  return true;
}

void HttpServer::stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_relaxed);
  // shutdown() wakes the blocked accept(); close() alone can leave it
  // sleeping on some kernels.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  port_ = 0;
}

void HttpServer::serve_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop()
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void HttpServer::handle_connection(int fd) {
  // A stalled or malicious client must not wedge the accept loop: read
  // until the end of headers (we never accept request bodies) with a hard
  // size cap, against one deadline for the whole request, and bound every
  // write of the response.
  const auto deadline = std::chrono::steady_clock::now() + kRequestDeadline;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

  std::string request;
  char buf[2048];
  bool timed_out = false;
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd ready{fd, POLLIN, 0};
    const int polled =
        left.count() > 0 ? ::poll(&ready, 1, static_cast<int>(left.count()))
                         : 0;
    if (polled < 0 && errno == EINTR) continue;
    timed_out = polled == 0;
    if (polled <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      break;
    }
    request.append(buf, static_cast<std::size_t>(n));
  }

  HttpRequest parsed;
  HttpResponse response;
  bool send_body = true;
  if (timed_out) {
    // Headers that never ended are never served, whatever they hold.
    response = HttpResponse::bad_request("request deadline exceeded");
  } else if (!parse_http_request(request, parsed)) {
    response = HttpResponse::bad_request("malformed request");
  } else if (parsed.method != "GET" && parsed.method != "HEAD") {
    response = HttpResponse::bad_request("only GET is supported");
  } else {
    response = handler_(parsed);
    // HEAD gets GET's header, Content-Length included, and no body.
    send_body = parsed.method != "HEAD";
  }
  // Header and body go out as two sends: joining them would copy the body
  // (all of a /map) once more.
  if (send_all(fd, render_http_head(response)) && send_body)
    send_all(fd, response.body_view());
}

}  // namespace vp::net
