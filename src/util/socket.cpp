#include "util/socket.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/error.hpp"

namespace fascia::util {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw resource_error(what + ": " + std::strerror(errno));
}

}  // namespace

// ---- Socket --------------------------------------------------------------

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

namespace {

void set_io_timeout(int fd, int which, double seconds) noexcept {
  if (fd < 0) return;
  timeval tv{};
  if (seconds > 0.0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    // A strictly positive timeout must not round down to "block
    // forever" (tv == {0,0} means no timeout to the kernel).
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

}  // namespace

void Socket::set_read_timeout(double seconds) const noexcept {
  set_io_timeout(fd_, SO_RCVTIMEO, seconds);
}

void Socket::set_write_timeout(double seconds) const noexcept {
  set_io_timeout(fd_, SO_SNDTIMEO, seconds);
}

// ---- Listener ------------------------------------------------------------

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_),
      unix_path_(std::move(other.unix_path_)) {
  other.fd_ = -1;
  other.port_ = -1;
  other.unix_path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    unix_path_ = std::move(other.unix_path_);
    other.fd_ = -1;
    other.port_ = -1;
    other.unix_path_.clear();
  }
  return *this;
}

Listener Listener::tcp(const std::string& host, int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw usage_error("invalid listen address: " + host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind/listen " + host + ":" + std::to_string(port));
  }

  Listener out;
  out.fd_ = fd;
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    out.port_ = ntohs(bound.sin_port);
  }
  return out;
}

Listener Listener::unix_domain(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw usage_error("unix socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind/listen " + path);
  }

  Listener out;
  out.fd_ = fd;
  out.unix_path_ = path;
  return out;
}

Socket Listener::accept() const {
  while (fd_ >= 0) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return Socket(client);
    if (errno == EINTR) continue;
    // EINVAL after shutdown(): the clean exit path.
    return Socket();
  }
  return Socket();
}

void Listener::shutdown() const noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    // shutdown() first so a thread blocked in accept() wakes up even
    // on platforms where close() alone does not interrupt it.
    shutdown();
    ::close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

// ---- clients -------------------------------------------------------------

Socket connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw usage_error("invalid connect address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

Socket connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw usage_error("unix socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect " + path);
  }
  return Socket(fd);
}

}  // namespace fascia::util
