#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace pim::serve {
namespace {

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof(addr.sun_path), "serve: socket path too long: " + path,
          ErrorCode::bad_input);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in loopback_address(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return addr;
}

int open_socket(int domain) {
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  require(fd >= 0, std::string("serve: socket() failed: ") + std::strerror(errno),
          ErrorCode::io_parse);
  return fd;
}

// Closes `fd` and throws io_parse with errno's reason appended.
[[noreturn]] void fail_closing(int fd, const std::string& what) {
  const std::string why = std::strerror(errno);
  ::close(fd);
  fail(what + ": " + why, ErrorCode::io_parse);
}

template <typename Address>
int connect_to(int domain, const Address& addr, const std::string& target) {
  const int fd = open_socket(domain);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    fail_closing(fd, "serve: cannot connect to " + target);
  return fd;
}

}  // namespace

int connect_unix(const std::string& path) {
  return connect_to(AF_UNIX, unix_address(path), path);
}

int connect_tcp(int port) {
  return connect_to(AF_INET, loopback_address(port), "127.0.0.1:" + std::to_string(port));
}

int listen_unix(const std::string& path) {
  // The socket file appears at bind(), but connect() is refused until
  // listen(); binding under a temporary name and renaming after listen()
  // closes that window.
  const std::string bound_path = path + ".tmp";
  unix_address(path);  // the final name must fit as well
  const sockaddr_un addr = unix_address(bound_path);
  const int fd = open_socket(AF_UNIX);
  ::unlink(bound_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    fail_closing(fd, "serve: cannot bind " + bound_path);
  if (::listen(fd, 64) != 0 || ::rename(bound_path.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(bound_path.c_str());
    errno = err;
    fail_closing(fd, "serve: cannot listen on " + path);
  }
  return fd;
}

int listen_tcp(int port, int& bound_port) {
  const int fd = open_socket(AF_INET);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = loopback_address(port);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    fail_closing(fd, "serve: cannot listen on 127.0.0.1:" + std::to_string(port));
  bound_port = static_cast<int>(ntohs(bound.sin_port));
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

LineReader::Status LineReader::next(std::string& line) {
  for (;;) {
    const size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      line.assign(buffer_, start_, nl - start_);
      start_ = scanned_ = nl + 1;
      return Status::line;
    }
    if (buffer_.size() - start_ > max_line_) return Status::too_long;
    buffer_.erase(0, start_);
    start_ = 0;
    scanned_ = buffer_.size();
    if (!fill()) return Status::eof;
  }
}

bool LineReader::fill() {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

}  // namespace pim::serve
