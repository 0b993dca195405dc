// Minimal newline-delimited JSON client for a pimd Unix socket.
#pragma once

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace e2e {

/// An owned client connection. Reads time out after `timeout_s`, so a
/// lost response ends the read instead of hanging the benchmark.
class Connection {
 public:
  Connection(const std::string& path, int timeout_s) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      ::close(fd_);
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path + ": " + why);
    }
    timeval tv{};
    tv.tv_sec = timeout_s;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends all of `bytes`; false on a send failure.
  bool send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one line (without the newline); false on EOF, error or
  /// timeout.
  bool next(std::string& line) {
    for (;;) {
      const size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line.assign(buffer_, head_, nl - head_);
        head_ = nl + 1;
        scanned_ = head_;
        if (head_ > (1u << 20)) {  // compact now and then, not per line
          buffer_.erase(0, head_);
          scanned_ = head_ = 0;
        }
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// One request, one response.
  bool round_trip(const std::string& request, std::string& response) {
    return send(request + "\n") && next(response);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t head_ = 0;
  size_t scanned_ = 0;
};

}  // namespace e2e
