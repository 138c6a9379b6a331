// Shared plumbing for the forked-binary daemon harnesses
// (daemon_soak_test.cpp, daemon_chaos_test.cpp): spawn the real vpd
// under chaos environment hooks, discover its ephemeral port, poll its
// endpoints over a real socket, and shut it down with SIGTERM the way an
// operator (or systemd) would.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace vp::daemon_test {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

/// Extracts round r's catchment section from a `vpctl campaign --out`
/// file ("# round N" separators) — the bytes the daemon's /map endpoint
/// must reproduce exactly when serving round r.
inline std::string round_section(const std::string& csv, unsigned round) {
  const std::string marker = "# round " + std::to_string(round) + "\n";
  const std::size_t begin = csv.find(marker);
  if (begin == std::string::npos) return {};
  const std::size_t body = begin + marker.size();
  const std::size_t end = csv.find("# round ", body);
  return csv.substr(body,
                    end == std::string::npos ? std::string::npos : end - body);
}

/// Forks vpd with the given argv and environment extras, stdout/stderr
/// silenced. The caller owns the pid (terminate() below).
inline pid_t spawn_vpd(const char* vpd_path,
                       const std::vector<std::string>& args,
                       const std::map<std::string, std::string>& env = {}) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    for (const auto& [key, value] : env)
      ::setenv(key.c_str(), value.c_str(), 1);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, 1);
    ::dup2(null_fd, 2);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(vpd_path));
    for (const std::string& arg : args)
      argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(vpd_path, argv.data());
    ::_exit(127);
  }
  return pid;
}

/// Blocking run of a command line under `env` extras; returns the exit
/// code (-1 on signal death).
inline int run_blocking(const std::string& binary, const std::string& args,
                        const std::string& env = "") {
  const std::string cmd = env + binary + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// SIGTERM + reap: the daemon's clean-shutdown contract is exit code 0.
inline int terminate_vpd(pid_t pid) {
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Waits for the daemon's --port-file to appear and parses the port.
inline std::uint16_t wait_port(const std::string& port_file,
                               double timeout_s = 60.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string text = read_file(port_file);
    if (!text.empty()) {
      const long port = std::atol(text.c_str());
      if (port > 0 && port < 65536) return static_cast<std::uint16_t>(port);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  return 0;
}

struct HttpReply {
  int status = 0;
  std::string body;
};

/// A TCP connection to the daemon's loopback port; -1 on failure. With
/// `timeout_s` > 0, reads give up after that long.
inline int connect_loopback(std::uint16_t port, double timeout_s = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (timeout_s > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Everything the peer sends until it closes (or a read times out).
inline std::string read_all(int fd) {
  std::string data;
  char buffer[8192];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0)
    data.append(buffer, static_cast<std::size_t>(n));
  return data;
}

/// One blocking GET against the daemon; status 0 on connect failure, or
/// when no response arrives within `timeout_s` (> 0).
inline HttpReply http_get(std::uint16_t port, const std::string& target,
                          double timeout_s = 0) {
  HttpReply reply;
  const int fd = connect_loopback(port, timeout_s);
  if (fd < 0) return reply;
  const std::string request = "GET " + target + " HTTP/1.1\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return reply;
  }
  const std::string response = read_all(fd);
  ::close(fd);
  const std::size_t space = response.find(' ');
  if (space != std::string::npos)
    reply.status = std::atoi(response.c_str() + space + 1);
  const std::size_t split = response.find("\r\n\r\n");
  if (split != std::string::npos) reply.body = response.substr(split + 4);
  return reply;
}

/// Polls `target` until its body contains `needle`; returns the matching
/// body (empty on timeout — callers assert on the contents).
inline std::string poll_for(std::uint16_t port, const std::string& target,
                            const std::string& needle,
                            double timeout_s = 120.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const HttpReply reply = http_get(port, target);
    if (reply.body.find(needle) != std::string::npos) return reply.body;
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }
  return {};
}

}  // namespace vp::daemon_test
