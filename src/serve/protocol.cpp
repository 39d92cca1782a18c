#include "serve/protocol.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace rcgp::serve {

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Fd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

sockaddr_un address_for(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path empty or longer than " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " + std::strerror(errno));
}

} // namespace

Fd listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = address_for(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    fail_errno("socket");
  }
  ::unlink(path.c_str()); // stale socket from a killed daemon
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    fail_errno("bind " + path);
  }
  if (::listen(fd.get(), backlog) != 0) {
    fail_errno("listen " + path);
  }
  return fd;
}

Fd connect_unix(const std::string& path) {
  const sockaddr_un addr = address_for(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    fail_errno("socket");
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    fail_errno("connect " + path);
  }
  return fd;
}

namespace {

/// Resolved addresses for `host:port` (AF_UNSPEC: v4 and v6). Throws on
/// resolution failure; the caller frees with freeaddrinfo.
addrinfo* resolve_tcp(const std::string& host, std::uint16_t port,
                      bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("serve: cannot resolve " +
                             (host.empty() ? std::string("*") : host) + ":" +
                             service + ": " + ::gai_strerror(rc));
  }
  return res;
}

} // namespace

Fd listen_tcp(const std::string& host, std::uint16_t port, int backlog) {
  addrinfo* res = resolve_tcp(host, port, /*passive=*/true);
  std::string last_error = "no addresses resolved";
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last_error = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd.get(), backlog) != 0) {
      last_error = std::strerror(errno);
      continue;
    }
    ::freeaddrinfo(res);
    return fd;
  }
  ::freeaddrinfo(res);
  throw std::runtime_error("serve: cannot listen on " +
                           (host.empty() ? std::string("*") : host) + ":" +
                           std::to_string(port) + ": " + last_error);
}

Fd connect_tcp(const std::string& host, std::uint16_t port) {
  addrinfo* res = resolve_tcp(host, port, /*passive=*/false);
  std::string last_error = "no addresses resolved";
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      last_error = std::strerror(errno);
      continue;
    }
    ::freeaddrinfo(res);
    return fd;
  }
  ::freeaddrinfo(res);
  throw std::runtime_error("serve: connect " + host + ":" +
                           std::to_string(port) + ": " + last_error);
}

std::string local_address(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len) != 0) {
    fail_errno("getsockname");
  }
  char host[INET6_ADDRSTRLEN] = {};
  if (ss.ss_family == AF_INET) {
    const auto* in = reinterpret_cast<const sockaddr_in*>(&ss);
    ::inet_ntop(AF_INET, &in->sin_addr, host, sizeof(host));
    return std::string(host) + ":" + std::to_string(ntohs(in->sin_port));
  }
  if (ss.ss_family == AF_INET6) {
    const auto* in6 = reinterpret_cast<const sockaddr_in6*>(&ss);
    ::inet_ntop(AF_INET6, &in6->sin6_addr, host, sizeof(host));
    return "[" + std::string(host) +
           "]:" + std::to_string(ntohs(in6->sin6_port));
  }
  if (ss.ss_family == AF_UNIX) {
    const auto* un = reinterpret_cast<const sockaddr_un*>(&ss);
    return std::string(un->sun_path);
  }
  return "?";
}

namespace {

class UnixTransport final : public Transport {
public:
  explicit UnixTransport(std::string path) : path_(std::move(path)) {}
  Fd listen(int backlog) override { return listen_unix(path_, backlog); }
  Fd connect() override { return connect_unix(path_); }
  std::string describe() const override { return path_; }
  void cleanup() override { ::unlink(path_.c_str()); }

private:
  std::string path_;
};

class TcpTransport final : public Transport {
public:
  TcpTransport(std::string host, std::uint16_t port)
      : host_(std::move(host)), port_(port) {}
  Fd listen(int backlog) override { return listen_tcp(host_, port_, backlog); }
  Fd connect() override { return connect_tcp(host_, port_); }
  std::string describe() const override {
    return host_ + ":" + std::to_string(port_);
  }
  void cleanup() override {} // nothing lives on disk

private:
  std::string host_;
  std::uint16_t port_;
};

} // namespace

std::unique_ptr<Transport> Transport::unix_socket(std::string path) {
  return std::make_unique<UnixTransport>(std::move(path));
}

std::unique_ptr<Transport> Transport::tcp(std::string host,
                                          std::uint16_t port) {
  return std::make_unique<TcpTransport>(std::move(host), port);
}

std::unique_ptr<Transport> Transport::for_address(const std::string& address) {
  if (address.empty()) {
    throw std::invalid_argument("serve: empty address");
  }
  const std::size_t colon = address.rfind(':');
  if (colon != std::string::npos && colon + 1 < address.size() &&
      colon > 0) {
    const std::string port_str = address.substr(colon + 1);
    bool numeric = true;
    for (const char c : port_str) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
    }
    if (numeric) {
      // Accumulate with an early bail instead of std::stoul: a digit run
      // long enough to overflow unsigned long must still be the port-out-
      // of-range error, not std::out_of_range.
      unsigned long port = 0;
      for (const char c : port_str) {
        port = port * 10 + static_cast<unsigned long>(c - '0');
        if (port > 65535) {
          throw std::invalid_argument("serve: TCP port out of range in \"" +
                                      address + "\"");
        }
      }
      std::string host = address.substr(0, colon);
      // Strip IPv6 brackets ("[::1]:7000").
      if (host.size() >= 2 && host.front() == '[' && host.back() == ']') {
        host = host.substr(1, host.size() - 2);
      }
      return tcp(std::move(host), static_cast<std::uint16_t>(port));
    }
  }
  return unix_socket(address);
}

bool wait_readable(int fd, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r < 0 && errno == EINTR) {
      continue;
    }
    return r > 0;
  }
}

bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_line(int fd, std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  return write_all(fd, framed);
}

namespace {

// A cache hit's reply, and a closed-loop client's next request, arrive
// within tens of microseconds, and a reader that blocks at once pays a
// wake-up on each: on a 4-vCPU KVM Xeon, BM_ServeHitRoundTrip took 37-42
// us with blocking reads and 22-25 us polling first. So a read polls for
// this long before it blocks: well over a hit's handling (12-14 us
// there), and 300 us gained nothing more. A read that ends up blocking (a
// miss's synthesis, an idle connection) pays at most this window of CPU.
constexpr auto kPollWindow = std::chrono::microseconds(100);

} // namespace

ssize_t LineReader::receive(char* chunk, std::size_t size) {
  const auto deadline = std::chrono::steady_clock::now() + kPollWindow;
  do {
    const ssize_t n = ::recv(fd_, chunk, size, MSG_DONTWAIT);
    if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      return n;
    }
    // On a busy machine the peer may be waiting for this very core: a
    // bare spin there made a hit round trip 4-5x slower than blocking
    // (3 CPU-bound processes on 4 cores), a yielding one did not.
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < deadline);
  return ::recv(fd_, chunk, size, 0);
}

bool LineReader::next(std::string& line) {
  for (;;) {
    const auto nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (eof_) {
      return false;
    }
    char chunk[4096];
    const ssize_t n = receive(chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      eof_ = true;
      return false;
    }
    if (n == 0) {
      eof_ = true; // a trailing unterminated line is dropped by design
      continue;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

} // namespace rcgp::serve
