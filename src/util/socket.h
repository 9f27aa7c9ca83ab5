// Minimal POSIX TCP helpers for the service layer (`bbsmined` daemon and
// the `bbsmine client` subcommand).
//
// Scope is deliberately small: IPv4 loopback/LAN stream sockets with
// blocking reads bounded by poll() timeouts. Everything reports failures
// as Status built from errno (util::StatusFromErrno), so socket errors
// read exactly like file errors elsewhere in the library.
//
// Ownership: the helpers traffic in raw fds wrapped in OwnedFd, a
// move-only RAII holder, so an early return can never leak a descriptor.

#ifndef BBSMINE_UTIL_SOCKET_H_
#define BBSMINE_UTIL_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace bbsmine {

/// Move-only owner of a file descriptor; closes it on destruction.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Relinquishes ownership without closing.
  int Release() { return std::exchange(fd_, -1); }

  /// Closes the held descriptor (if any).
  void Reset();

 private:
  int fd_ = -1;
};

/// A TCP endpoint, written "host:port".
struct Endpoint {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }
};

/// Parses "host:port" strictly: a non-empty host, then a port of decimal
/// digits only in [1, 65535] (so "h:80x", "h:0" and ":1" are rejected).
/// The host is everything before the last ':'.
Result<Endpoint> ParseEndpoint(const std::string& spec);

/// Creates a listening TCP socket bound to `host:port` (IPv4 dotted quad;
/// SO_REUSEADDR set). `port` 0 binds an ephemeral port; use BoundPort to
/// learn the assignment.
Result<OwnedFd> ListenTcp(const std::string& host, uint16_t port,
                          int backlog = 64);

/// The local port a socket is bound to (after ListenTcp with port 0).
Result<uint16_t> BoundPort(int fd);

/// Connects to `host:port`, waiting at most `timeout_ms` for the handshake
/// (-1 = the kernel default, which can be minutes against a blackholed
/// peer). The connect itself is non-blocking + poll, so a caller with a
/// deadline is never stalled by an unreachable host; the returned fd is
/// back in blocking mode. A timeout returns Unavailable.
Result<OwnedFd> ConnectTcp(const std::string& host, uint16_t port,
                           int timeout_ms = 10'000);

/// Accepts one connection. Waits up to `timeout_ms` (-1 = forever);
/// returns an invalid OwnedFd on timeout so pollers can check a stop flag.
Result<OwnedFd> AcceptWithTimeout(int listen_fd, int timeout_ms);

/// Writes all of `data`, retrying on short writes and EINTR.
Status SendAll(int fd, std::string_view data);

/// Reads exactly `n` bytes into `out` (resized). Waits up to `timeout_ms`
/// between reads (-1 = forever). A clean EOF before the first byte returns
/// NotFound ("peer closed"); a poll timeout returns Unavailable (callers
/// polling a stop flag re-issue the read); EOF mid-message is an IoError.
Status RecvExact(int fd, size_t n, std::string* out, int timeout_ms = -1);

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_SOCKET_H_
