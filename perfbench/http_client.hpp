// A minimal blocking HTTP/1.1 GET client for loopback benchmarking: one
// connection per request, matching the server's Connection: close.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpResult {
  bool ok = false;   ///< connected, sent, and read a complete response
  int status = 0;
  std::string body;
};

/// GET http://127.0.0.1:<port><target>.
HttpResult http_get(std::uint16_t port, const std::string& target);

}  // namespace perfbench
