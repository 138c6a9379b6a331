// A tiny blocking HTTP/1.x server for the verfploeterd query endpoints.
//
// Deliberately minimal — no third-party dependencies, no TLS, no
// keep-alive: bind 127.0.0.1, accept one connection at a time, parse the
// request line plus query string, hand the request to a handler, write
// the response, close. The daemon's serving economics live in the
// handler (an O(1) map lookup), so a single blocking accept loop is
// plenty for the 100k-lookups/s bar — the lookup path is benchmarked
// in-process (bench_serve) and the socket layer only has to not wedge:
// one deadline for each connection's whole request (5 s from accept) and
// per-write timeouts guarantee a stalled or trickling client cannot stop
// the daemon from serving the next one.
//
// The request/response structs are plain values so endpoint handlers are
// unit-testable (and benchable) without a socket in sight.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

namespace vp::net {

struct HttpRequest {
  std::string method;  // "GET"
  std::string path;    // decoded, no query string: "/block/1.2.3.4"
  std::map<std::string, std::string> query;  // decoded key -> value

  /// Query parameter lookup with a fallback.
  std::string param(const std::string& key, const std::string& fallback = "") const {
    const auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Immutable and shared, so a body the handler keeps anyway (the
  /// daemon's rendered /map) goes out without a copy: the pointer may
  /// alias the object that owns the bytes. Null means an empty body.
  std::shared_ptr<const std::string> body;

  /// The body's bytes; empty when there is no body.
  std::string_view body_view() const {
    return body ? std::string_view{*body} : std::string_view{};
  }

  static HttpResponse json(std::string body, int status = 200) {
    return {status, "application/json", own(std::move(body))};
  }
  static HttpResponse text(std::string body, int status = 200) {
    return {status, "text/plain; version=0.0.4", own(std::move(body))};
  }
  static HttpResponse not_found(std::string why = "not found") {
    return text(std::move(why) + "\n", 404);
  }
  static HttpResponse bad_request(std::string why) {
    return text(std::move(why) + "\n", 400);
  }

 private:
  static std::shared_ptr<const std::string> own(std::string body) {
    return std::make_shared<const std::string>(std::move(body));
  }
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Decodes %XX escapes and '+' (as space). Invalid escapes pass through.
std::string url_decode(std::string_view text);

/// Parses "GET /path?a=1&b=2 HTTP/1.1" request text (first line only) into
/// an HttpRequest. Returns false on a malformed request line.
bool parse_http_request(std::string_view request_text, HttpRequest& out);

/// Serializes a response's status line and headers, up to and including
/// the blank line: Content-Type, Content-Length (of the body) and
/// Connection: close. The body follows it on the wire.
std::string render_http_head(const HttpResponse& response);

class HttpServer {
 public:
  HttpServer() = default;
  ~HttpServer() { stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept loop on
  /// a background thread. Returns false if bind/listen fails. The handler
  /// is invoked from the accept thread; it must synchronize with whatever
  /// state it reads.
  bool start(std::uint16_t port, HttpHandler handler);

  /// The bound port (useful after an ephemeral bind). 0 when not running.
  std::uint16_t port() const { return port_; }
  bool running() const { return listen_fd_ >= 0; }

  /// Closes the listener and joins the accept thread. Idempotent.
  void stop();

 private:
  void serve_loop();
  void handle_connection(int fd);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  HttpHandler handler_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
};

}  // namespace vp::net
