#include "transport/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

// send() without SIGPIPE where the platform has the flag; platforms without
// it (macOS) get the equivalent SO_NOSIGPIPE set per-socket in
// suppress_sigpipe() below. Either way a dead peer surfaces as EPIPE, which
// write_some turns into closed().
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace rlir::transport {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

/// Builds the sockaddr for `address`; returns the byte length used.
socklen_t fill_sockaddr(const SocketAddress& address, sockaddr_storage* storage) {
  std::memset(storage, 0, sizeof(*storage));
  if (address.kind == SocketAddress::Kind::kTcp) {
    auto* sin = reinterpret_cast<sockaddr_in*>(storage);
    sin->sin_family = AF_INET;
    sin->sin_port = htons(address.port);
    if (::inet_pton(AF_INET, address.host.c_str(), &sin->sin_addr) != 1) {
      throw std::invalid_argument("SocketAddress: bad IPv4 host '" + address.host + "'");
    }
    return sizeof(sockaddr_in);
  }
  auto* sun = reinterpret_cast<sockaddr_un*>(storage);
  sun->sun_family = AF_UNIX;
  if (address.path.empty() || address.path.size() >= sizeof(sun->sun_path)) {
    throw std::invalid_argument("SocketAddress: unix path empty or too long");
  }
  std::memcpy(sun->sun_path, address.path.c_str(), address.path.size() + 1);
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + address.path.size() + 1);
}

/// A connected socket as a nonblocking ByteStream. Errors collapse into
/// closed(): once the fd reports anything but EAGAIN, no byte will move
/// again, which is all the layers above need to know.
class SocketStream final : public ByteStream {
 public:
  explicit SocketStream(int fd) : fd_(fd) {}
  ~SocketStream() override { close(); }

  std::size_t write_some(const std::uint8_t* data, std::size_t size) override {
    if (fd_ < 0 || size == 0) return 0;
    const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return 0;
    close();  // EPIPE / ECONNRESET / anything else: the stream is done
    return 0;
  }

  std::size_t read_some(std::uint8_t* data, std::size_t size) override {
    if (fd_ < 0 || size == 0) return 0;
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return 0;
    close();  // n == 0 is orderly EOF; n < 0 is an error — same outcome here
    return 0;
  }

  [[nodiscard]] bool closed() const override { return fd_ < 0; }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_;
};

void enable_nodelay(int fd) {
  // Epoch batches are latency-relevant telemetry; don't let Nagle pool them.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void suppress_sigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  // No MSG_NOSIGNAL on this platform: writing to a dead peer must degrade
  // to EPIPE/closed(), never kill the process.
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

}  // namespace

SocketAddress SocketAddress::tcp(std::string host, std::uint16_t port) {
  SocketAddress a;
  a.kind = Kind::kTcp;
  a.host = std::move(host);
  a.port = port;
  return a;
}

SocketAddress SocketAddress::unix_path(std::string path) {
  SocketAddress a;
  a.kind = Kind::kUnix;
  a.path = std::move(path);
  return a;
}

SocketAddress SocketAddress::parse(const std::string& text) {
  if (text.rfind("unix:", 0) == 0) {
    const auto path = text.substr(5);
    if (path.empty()) throw std::invalid_argument("SocketAddress: empty unix path");
    return unix_path(path);
  }
  if (text.rfind("tcp:", 0) == 0) {
    const auto rest = text.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      throw std::invalid_argument("SocketAddress: want tcp:HOST:PORT, got '" + text + "'");
    }
    const auto port_text = rest.substr(colon + 1);
    std::size_t pos = 0;
    const auto port = std::stoul(port_text, &pos);
    if (pos != port_text.size() || port > 0xffff) {
      throw std::invalid_argument("SocketAddress: bad port '" + port_text + "'");
    }
    return tcp(rest.substr(0, colon), static_cast<std::uint16_t>(port));
  }
  throw std::invalid_argument("SocketAddress: want tcp:HOST:PORT or unix:PATH, got '" + text +
                              "'");
}

std::string SocketAddress::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

SocketListener::SocketListener(const SocketAddress& address) : address_(address) {
  const int domain = address.kind == SocketAddress::Kind::kTcp ? AF_INET : AF_UNIX;
  fd_ = ::socket(domain, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket()");
  try {
    if (address.kind == SocketAddress::Kind::kTcp) {
      const int one = 1;
      ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    } else {
      // A previous daemon's socket file makes bind fail with EADDRINUSE
      // even though nobody is listening; a fresh bind is the intent.
      ::unlink(address.path.c_str());
    }
    sockaddr_storage storage;
    const auto len = fill_sockaddr(address, &storage);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&storage), len) < 0) {
      throw_errno("bind(" + address.to_string() + ")");
    }
    if (::listen(fd_, SOMAXCONN) < 0) throw_errno("listen(" + address.to_string() + ")");
    set_nonblocking(fd_);
    if (address.kind == SocketAddress::Kind::kTcp && address.port == 0) {
      sockaddr_in bound;
      socklen_t bound_len = sizeof(bound);
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
        throw_errno("getsockname()");
      }
      address_.port = ntohs(bound.sin_port);
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) ::close(fd_);
  if (address_.kind == SocketAddress::Kind::kUnix) ::unlink(address_.path.c_str());
}

std::unique_ptr<ByteStream> SocketListener::accept() {
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) return nullptr;  // EAGAIN and transient errors alike: try later
  set_nonblocking(conn);
  suppress_sigpipe(conn);
  if (address_.kind == SocketAddress::Kind::kTcp) enable_nodelay(conn);
  return std::make_unique<SocketStream>(conn);
}

std::unique_ptr<ByteStream> connect_to(const SocketAddress& address) {
  const int domain = address.kind == SocketAddress::Kind::kTcp ? AF_INET : AF_UNIX;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  sockaddr_storage storage;
  socklen_t len = 0;
  try {
    len = fill_sockaddr(address, &storage);
  } catch (...) {
    ::close(fd);
    throw;
  }
  // Blocking connect (bounded by the kernel's own timeout), then nonblocking
  // I/O: the client retries via its backoff machinery, not via EINPROGRESS
  // bookkeeping.
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&storage), len) < 0) {
    ::close(fd);
    return nullptr;
  }
  try {
    set_nonblocking(fd);
  } catch (...) {
    ::close(fd);
    throw;
  }
  suppress_sigpipe(fd);
  if (address.kind == SocketAddress::Kind::kTcp) enable_nodelay(fd);
  return std::make_unique<SocketStream>(fd);
}

}  // namespace rlir::transport
