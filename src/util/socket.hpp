#pragma once
// Minimal POSIX socket wrappers for the counting service.
//
// Dependency-free (no third-party networking): just enough RAII and
// error mapping to run the framed JSON protocol (util/framing.hpp)
// over TCP or Unix-domain stream sockets.  TCP binds loopback by
// default — the server is an internal service, not an internet-facing
// one; port 0 picks an ephemeral port (Listener::port() reports the
// resolved value, which is how tests and benches avoid collisions).
//
// All operations throw Error(kResource) on OS failures; accept()
// returns an invalid socket (instead of throwing) once the listener
// has been shut down, so the server's accept loop can exit cleanly.

#include <string>

namespace fascia::util {

/// RAII file descriptor for one connected stream socket.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Closes the descriptor now (idempotent).  shutdown() additionally
  /// wakes a peer blocked in read with EOF before closing.
  void close() noexcept;
  void shutdown() noexcept;

  /// Kernel-level deadlines (SO_RCVTIMEO / SO_SNDTIMEO): a blocked
  /// read/write returns EAGAIN after `seconds`, which util/framing maps
  /// to a typed timeout error — the lever behind per-connection idle
  /// and I/O deadlines.  seconds <= 0 restores blocking forever.
  void set_read_timeout(double seconds) const noexcept;
  void set_write_timeout(double seconds) const noexcept;

 private:
  int fd_ = -1;
};

/// Listening socket: TCP (host:port) or Unix domain (filesystem path).
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&&) noexcept;
  Listener& operator=(Listener&&) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on TCP `host:port`; port 0 = ephemeral.
  static Listener tcp(const std::string& host, int port, int backlog = 64);

  /// Binds and listens on a Unix-domain socket at `path` (an existing
  /// stale socket file is replaced).
  static Listener unix_domain(const std::string& path, int backlog = 64);

  /// Blocks for the next connection.  Returns an invalid Socket after
  /// shutdown() — the accept-loop exit signal.
  [[nodiscard]] Socket accept() const;

  /// Resolved TCP port (the ephemeral pick when bound with port 0);
  /// -1 for Unix listeners.
  [[nodiscard]] int port() const noexcept { return port_; }

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Stops accepting: pending and future accept() calls return an
  /// invalid Socket.  Wake-only — the descriptor stays open and owned,
  /// so threads still inside accept() never see it change or reused.
  void shutdown() const noexcept;

  /// Releases the descriptor and removes the Unix socket file.  Call
  /// it only once no thread is inside accept() (shutdown(), then join
  /// the acceptors, then close()).
  void close() noexcept;

 private:
  int fd_ = -1;
  int port_ = -1;
  std::string unix_path_;
};

/// Connects to TCP `host:port`.  Throws Error(kResource) on failure.
Socket connect_tcp(const std::string& host, int port);

/// Connects to the Unix-domain socket at `path`.
Socket connect_unix(const std::string& path);

}  // namespace fascia::util
