#include "util/durable.hpp"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <stdexcept>
#include <unistd.h>

namespace rcgp::util {

namespace {

[[noreturn]] void fail(const std::string& path, int err) {
  throw std::runtime_error("cannot write " + path + ": " +
                           std::strerror(err));
}

} // namespace

void write_file_durable(const std::string& path, std::string_view bytes) {
  static std::atomic<std::uint64_t> next_temp{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(next_temp.fetch_add(1));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) fail(path, errno);
  int err = 0;
  while (err == 0 && !bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n > 0) {
      bytes.remove_prefix(static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      err = n == 0 ? EIO : errno;
    }
  }
  if (err == 0 && ::fsync(fd) != 0) err = errno;
  if (::close(fd) != 0 && err == 0) err = errno;
  if (err == 0 && ::rename(tmp.c_str(), path.c_str()) != 0) err = errno;
  if (err != 0) {
    ::unlink(tmp.c_str());
    fail(path, err);
  }

  // The rename survives a power loss only once the directory is synced.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) fail(path, errno);
  err = ::fsync(dir_fd) == 0 ? 0 : errno;
  ::close(dir_fd);
  if (err != 0) fail(path, err);
}

} // namespace rcgp::util
