// pim::serve transport — the newline-delimited framing that pimd and its
// clients share (docs/serving.md). The daemon (server.cpp), the `pim
// serve` client, the serving bench and the serve tests connect, send and
// read lines only through these functions, so the framing rules live in
// one place:
//
//  - A line is the bytes before a '\n'; an unterminated tail at end of
//    stream is not a line.
//  - Every call retries EINTR. pim installs its SIGINT/SIGTERM handlers
//    without SA_RESTART, so a signal landing on a thread blocked in a
//    send or recv must not read as a dead peer.
//  - Sends use MSG_NOSIGNAL: a vanished peer is a false return, never
//    SIGPIPE.
//
// Policy above the framing (the daemon's tolerated '\r', skipped blank
// lines and line-length bound) stays with the caller.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>

namespace pim::serve {

/// Connects to the Unix-domain socket at `path`. Throws Error(io_parse)
/// naming the path when the connect fails, and bad_input when the path
/// does not fit a sockaddr_un.
int connect_unix(const std::string& path);

/// Connects to 127.0.0.1:`port`. Throws Error(io_parse) naming the target.
int connect_tcp(int port);

/// A listening Unix-domain socket at `path`. It is bound under
/// `path + ".tmp"` and renamed onto `path` after listen(), so a client
/// that sees the path can connect at once. An existing file at `path` is
/// replaced. Throws like connect_unix.
int listen_unix(const std::string& path);

/// A listening socket on 127.0.0.1:`port` (0 binds an ephemeral port);
/// `bound_port` receives the port actually bound. Throws Error(io_parse).
int listen_tcp(int port, int& bound_port);

/// Writes all of `bytes`, retrying partial writes and EINTR. False only
/// once the peer is gone.
bool send_all(int fd, std::string_view bytes);

/// Cuts lines from a stream socket, 64 KiB per recv. Each received byte
/// is scanned once and the consumed prefix is erased at most once per
/// recv, so pipelined input costs linear time.
class LineReader {
 public:
  enum class Status { line, eof, too_long };

  /// Once more than `max_line` bytes are buffered with no newline among
  /// them, next() reports too_long instead of reading on.
  explicit LineReader(int fd, size_t max_line = std::numeric_limits<size_t>::max())
      : fd_(fd), max_line_(max_line) {}

  /// The next line, without its '\n', or why there is none: end of
  /// stream (or a read error), or a line longer than the bound.
  Status next(std::string& line);

 private:
  bool fill();

  int fd_;
  size_t max_line_;
  std::string buffer_;
  size_t start_ = 0;    // first byte not yet returned
  size_t scanned_ = 0;  // [start_, scanned_) holds no '\n'
};

}  // namespace pim::serve
