#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include <sys/types.h>

namespace rcgp::serve {

/// RAII Unix file descriptor (sockets here, but any fd works).
class Fd {
public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { close(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release();
  void close();

private:
  int fd_ = -1;
};

/// Creates, binds, and listens on a Unix-domain stream socket at `path`,
/// unlinking a stale socket file first. Throws std::runtime_error on
/// failure (path too long for sockaddr_un, bind/listen errors).
Fd listen_unix(const std::string& path, int backlog = 16);

/// Connects to the Unix-domain socket at `path`. Throws
/// std::runtime_error when the daemon is not there.
Fd connect_unix(const std::string& path);

/// Creates, binds, and listens on a TCP stream socket (SO_REUSEADDR set).
/// `host` is resolved with getaddrinfo ("" = every interface); port 0
/// binds an ephemeral port — read it back with local_address(). Throws
/// std::runtime_error on resolution/bind/listen failure.
Fd listen_tcp(const std::string& host, std::uint16_t port, int backlog = 16);

/// Connects to `host:port` over TCP. Throws std::runtime_error when no
/// resolved address accepts the connection.
Fd connect_tcp(const std::string& host, std::uint16_t port);

/// The "host:port" a bound TCP socket actually listens on (getsockname —
/// resolves an ephemeral port 0 to the kernel-assigned one). IPv6
/// addresses come back bracketed ("[::1]:7000").
std::string local_address(int fd);

/// How the daemon and its clients reach each other: a Unix socket path or
/// a TCP endpoint behind one interface, so the serve/client/island layers
/// never branch on the address family. The NDJSON protocol and the slot
/// semaphore are transport-agnostic and unchanged.
class Transport {
public:
  virtual ~Transport() = default;
  /// Binds and listens; throws std::runtime_error on failure.
  virtual Fd listen(int backlog = 16) = 0;
  /// Connects to the (listening) endpoint; throws when nobody is there.
  virtual Fd connect() = 0;
  /// The endpoint in the same syntax for_address() accepts.
  virtual std::string describe() const = 0;
  /// Removes leftover endpoint state after the listener closed (the Unix
  /// socket file; TCP endpoints have none). Idempotent.
  virtual void cleanup() = 0;

  static std::unique_ptr<Transport> unix_socket(std::string path);
  static std::unique_ptr<Transport> tcp(std::string host, std::uint16_t port);
  /// Address syntax shared by `--connect` and island endpoints:
  /// "host:port" with a numeric port suffix is TCP, anything else is a
  /// Unix socket path. Throws std::invalid_argument on an empty address
  /// or a TCP port outside [0, 65535].
  static std::unique_ptr<Transport> for_address(const std::string& address);
};

/// Waits up to `timeout_ms` for `fd` to become readable. Returns false on
/// timeout, true when readable (or the peer hung up — the following read
/// reports that).
bool wait_readable(int fd, int timeout_ms);

/// Writes the whole buffer, retrying short writes. False on I/O error or
/// a closed peer (EPIPE surfaces as false, not a signal — the callers
/// disable SIGPIPE per send).
bool write_all(int fd, std::string_view data);

/// Appends a newline and writes atomically enough for NDJSON framing
/// (one write_all call).
bool write_line(int fd, std::string_view line);

/// Incremental newline-delimited reader over a socket fd. next() returns
/// false on EOF with no buffered line; lines arriving split across reads
/// are reassembled. Both ends of the serve protocol read through it.
class LineReader {
public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Waits until one full line is available (stripping the '\n') or the
  /// peer closes. Returns false on EOF/error. Each read polls the socket
  /// for a short fixed window (kPollWindow in protocol.cpp) before it
  /// blocks, so a reply that is already on its way costs no wake-up.
  bool next(std::string& line);

private:
  /// One recv into `chunk`: non-blocking attempts for the poll window,
  /// then a blocking one. Returns what recv returns.
  ssize_t receive(char* chunk, std::size_t size);

  int fd_;
  std::string buf_;
  bool eof_ = false;
};

} // namespace rcgp::serve
