// The daemon core (src/serve): socket round trips against a real
// in-process Server, the line transport, protocol error handling,
// admission control, stats, and graceful drain. pimd itself is this
// Server plus flag parsing; the end-to-end binary is exercised by
// scripts/check_serve.sh.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/wire.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "obs/report.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"

namespace pim::serve {
namespace {

constexpr LineReader::Status kLine = LineReader::Status::line;
constexpr LineReader::Status kEof = LineReader::Status::eof;

// Spin until the server's own stats report satisfies `done` (stats_json
// is safe from any thread). The predicates below wait on accepted /
// queue_depth transitions, so the assertions that follow are not timing
// guesses. FAIL() returns only from this helper: a caller that must not
// go on after a wait gave up wraps it in ASSERT_NO_FATAL_FAILURE.
template <typename Pred>
void wait_for_stats(Server& server, Pred done) {
  for (int i = 0; i < 50000; ++i) {
    const obs::JsonValue v = obs::parse_json(server.stats_json());
    if (done(v)) return;
    ::usleep(100);
  }
  FAIL() << "stats never reached the expected state: " << server.stats_json();
}

// A client socket that is closed when the test returns, early or not.
// Declared after the Server, it closes first, so the server's destructor
// never waits on a flush to a peer that stopped reading.
class ClientSocket {
 public:
  explicit ClientSocket(int fd) : fd_(fd) {}
  ~ClientSocket() { close(); }
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;
  int fd() const { return fd_; }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
};

double stat(const obs::JsonValue& v, const char* name) {
  const obs::JsonValue* m = v.find(name);
  return m == nullptr ? -1.0 : m->number;
}

std::string big_techfile_batch(int items) {
  std::string line = "{\"op\":\"batch\",\"id\":100,\"items\":[";
  for (int i = 0; i < items; ++i) {
    if (i > 0) line += ',';
    line += "{\"op\":\"techfile\",\"tech\":\"65nm\"}";
  }
  line += "]}";
  return line;
}

TEST(Serve, UnixSocketRoundTripMatchesInProcessExecution) {
  const std::string path = "/tmp/pim_test_serve_" + std::to_string(::getpid()) + ".sock";
  ServerOptions options;
  options.socket_path = path;
  options.workers = 2;
  Server server(options);
  server.start();

  const std::string line = "{\"op\":\"techfile\",\"id\":5,\"tech\":\"65nm\"}";
  const int fd = connect_unix(path);
  LineReader reader(fd);
  ASSERT_TRUE(send_all(fd, line + "\n"));
  std::string from_daemon;
  ASSERT_EQ(reader.next(from_daemon), kLine);
  EXPECT_EQ(from_daemon, api::wire::execute_line(line))
      << "daemon response must be byte-identical to a direct in-process call";
  EXPECT_NE(from_daemon.find("\"id\":5"), std::string::npos);
  EXPECT_NE(from_daemon.find("\"ok\":true"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(Serve, TcpEphemeralPortServesAndReportsItself) {
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  options.workers = 1;
  Server server(options);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  const int fd = connect_tcp(server.tcp_port());
  LineReader reader(fd);
  ASSERT_TRUE(send_all(fd, "{\"op\":\"techfile\",\"id\":1,\"tech\":\"45nm\"}\n"));
  std::string response;
  ASSERT_EQ(reader.next(response), kLine);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(Serve, MalformedLineGetsTypedErrorWithoutKillingTheConnection) {
  ServerOptions options;
  options.tcp_port = 0;
  Server server(options);
  server.start();

  const int fd = connect_tcp(server.tcp_port());
  LineReader reader(fd);
  ASSERT_TRUE(send_all(fd, "this is } not json\n"));
  std::string error_response;
  ASSERT_EQ(reader.next(error_response), kLine);
  {
    const obs::JsonValue v = obs::parse_json(error_response);
    EXPECT_FALSE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
    EXPECT_EQ(v.find("error")->find("exit_code")->number, 2.0);
  }
  // The same connection keeps serving afterwards.
  ASSERT_TRUE(send_all(fd, "{\"op\":\"techfile\",\"id\":2,\"tech\":\"65nm\"}\n"));
  std::string ok_response;
  ASSERT_EQ(reader.next(ok_response), kLine);
  EXPECT_NE(ok_response.find("\"id\":2"), std::string::npos);
  EXPECT_NE(ok_response.find("\"ok\":true"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(Serve, DeeplyNestedLineIsBadInputAndTheDaemonKeepsServing) {
  ServerOptions options;
  options.tcp_port = 0;
  Server server(options);
  server.start();

  const int fd = connect_tcp(server.tcp_port());
  LineReader reader(fd);
  ASSERT_TRUE(send_all(fd, std::string(200000, '[') + "\n"));
  std::string error_response;
  ASSERT_EQ(reader.next(error_response), kLine) << "daemon died on a deeply nested line";
  {
    const obs::JsonValue v = obs::parse_json(error_response);
    EXPECT_FALSE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  }
  ASSERT_TRUE(send_all(fd, "{\"op\":\"techfile\",\"id\":4,\"tech\":\"65nm\"}\n"));
  std::string ok_response;
  ASSERT_EQ(reader.next(ok_response), kLine);
  EXPECT_NE(ok_response.find("\"id\":4"), std::string::npos);
  EXPECT_NE(ok_response.find("\"ok\":true"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(Serve, UnknownTechStaysTypedAndTheConnectionSurvives) {
  ServerOptions options;
  options.tcp_port = 0;
  Server server(options);
  server.start();
  const int fd = connect_tcp(server.tcp_port());
  LineReader reader(fd);
  ASSERT_TRUE(send_all(fd, "{\"op\":\"techfile\",\"id\":3,\"tech\":\"no-such-tech\"}\n"));
  std::string response;
  ASSERT_EQ(reader.next(response), kLine);
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_EQ(v.find("id")->number, 3.0);
  EXPECT_FALSE(v.find("ok")->boolean);
  ::close(fd);
  server.stop();
}

// The framing the daemon accepts (docs/serving.md): a '\r' before the
// newline is tolerated and blank lines are skipped, so a CRLF stream with
// empty lines gets exactly the responses the LF-only stream gets, byte
// for byte, and no more.
TEST(Serve, CrlfAndBlankLinesGetTheLfOnlyResponses) {
  ServerOptions options;
  options.tcp_port = 0;
  Server server(options);
  server.start();
  const std::string first = "{\"op\":\"techfile\",\"id\":11,\"tech\":\"65nm\"}";
  const std::string second = "{\"op\":\"techfile\",\"id\":12,\"tech\":\"45nm\"}";

  std::vector<std::string> responses[2];
  const std::string streams[2] = {first + "\r\n\r\n\n" + second + "\n",
                                  first + "\n" + second + "\n"};
  for (int s = 0; s < 2; ++s) {
    const int fd = connect_tcp(server.tcp_port());
    ASSERT_TRUE(send_all(fd, streams[s]));
    ::shutdown(fd, SHUT_WR);  // the daemon answers what it got, then closes
    LineReader reader(fd);
    std::string line;
    while (reader.next(line) == kLine) responses[s].push_back(line);
    ::close(fd);
  }
  ASSERT_EQ(responses[1].size(), 2u);
  EXPECT_NE(responses[1][0].find("\"id\":11"), std::string::npos);
  EXPECT_NE(responses[1][1].find("\"id\":12"), std::string::npos);
  EXPECT_EQ(responses[0], responses[1]);
  server.stop();
}

TEST(Serve, RequestSplitAcrossThreeSendsGetsOneResponse) {
  ServerOptions options;
  options.tcp_port = 0;
  Server server(options);
  server.start();
  const std::string line = "{\"op\":\"techfile\",\"id\":13,\"tech\":\"65nm\"}\n";
  const int fd = connect_tcp(server.tcp_port());
  for (const std::string& piece : {line.substr(0, 10), line.substr(10, 20), line.substr(30)}) {
    ASSERT_TRUE(send_all(fd, piece));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  ::shutdown(fd, SHUT_WR);
  LineReader reader(fd);
  std::string response;
  ASSERT_EQ(reader.next(response), kLine);
  EXPECT_EQ(response, api::wire::execute_line(line.substr(0, line.size() - 1)));
  EXPECT_EQ(reader.next(response), kEof) << "one request, one response";
  ::close(fd);
  server.stop();
}

// A line past the daemon's 64 MiB bound is a protocol violation: one
// bad_input response naming the bound, then the connection closes. The
// daemon itself keeps serving.
TEST(Serve, OverlongLineGetsOneBadInputThenEof) {
  constexpr size_t kBound = size_t{64} * 1024 * 1024;
  const std::string path =
      ::testing::TempDir() + "pim_serve_overlong_" + std::to_string(::getpid()) + ".sock";
  ServerOptions options;
  options.socket_path = path;
  Server server(options);
  server.start();

  const int fd = connect_unix(path);
  // The daemon stops reading mid-stream, so the send may fail; only the
  // response matters.
  std::thread writer([fd, bytes = std::string(kBound + 65536, 'x')] {
    (void)send_all(fd, bytes);
  });
  LineReader reader(fd);
  std::string response;
  ASSERT_EQ(reader.next(response), kLine);
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  EXPECT_NE(v.find("error")->find("message")->text.find(std::to_string(kBound)),
            std::string::npos)
      << response;
  EXPECT_EQ(reader.next(response), kEof);
  writer.join();
  ::close(fd);

  const int fd2 = connect_unix(path);
  LineReader reader2(fd2);
  ASSERT_TRUE(send_all(fd2, "{\"op\":\"techfile\",\"id\":14,\"tech\":\"65nm\"}\n"));
  ASSERT_EQ(reader2.next(response), kLine);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  ::close(fd2);
  server.stop();
}

// A no-op SIGUSR1 handler installed without SA_RESTART, the way
// deadline::install_signal_handlers installs SIGINT/SIGTERM: a blocked
// send or recv that catches it fails with EINTR. The old handler comes
// back when the scope ends.
struct NoRestartSigusr1 {
  struct sigaction old {};
  NoRestartSigusr1() {
    struct sigaction action = {};
    action.sa_handler = [](int) {};
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(SIGUSR1, &action, &old);
  }
  ~NoRestartSigusr1() { sigaction(SIGUSR1, &old, nullptr); }
};

// A response the worker is still flushing into a full socket survives a
// signal: EINTR from send is not a dead peer.
TEST(Serve, SignalDuringFlushLosesNoResponse) {
  const NoRestartSigusr1 handler;
  const std::string path =
      ::testing::TempDir() + "pim_serve_eintr_" + std::to_string(::getpid()) + ".sock";
  ServerOptions options;
  options.socket_path = path;
  options.workers = 2;
  Server server(options);
  server.start();

  const int fd = connect_unix(path);
  // The batch response (a few hundred KB) overfills the socket buffers
  // while nothing reads it, so the flush blocks in send.
  ASSERT_TRUE(send_all(fd, big_techfile_batch(300) + "\n" +
                               "{\"op\":\"techfile\",\"id\":15,\"tech\":\"65nm\"}\n"));
  ::shutdown(fd, SHUT_WR);
  wait_for_stats(server, [](const obs::JsonValue& v) { return stat(v, "completed") >= 1.0; });
  const pid_t self = static_cast<pid_t>(::syscall(SYS_gettid));
  for (int round = 0; round < 5; ++round) {
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
      const pid_t tid = static_cast<pid_t>(std::stol(task.path().filename().string()));
      if (tid != self) ::syscall(SYS_tgkill, ::getpid(), tid, SIGUSR1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  LineReader reader(fd);
  std::string batch;
  ASSERT_EQ(reader.next(batch), kLine) << "the batch response was dropped";
  const obs::JsonValue v = obs::parse_json(batch);
  EXPECT_EQ(v.find("id")->number, 100.0);
  EXPECT_EQ(stat(*v.find("result"), "failed"), 0.0);
  std::string single;
  ASSERT_EQ(reader.next(single), kLine) << "the second response was dropped";
  EXPECT_NE(single.find("\"id\":15"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(Transport, SendAllSurvivesSignalsWhileBlocked) {
  const NoRestartSigusr1 handler;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload(4 * 1024 * 1024, 'p');
  std::promise<pthread_t> started;
  std::future<pthread_t> sender_id = started.get_future();
  std::future<bool> sent = std::async(std::launch::async, [&] {
    started.set_value(::pthread_self());
    return send_all(fds[0], payload + "\n");
  });
  const pthread_t sender = sender_id.get();
  // Nothing reads yet, so the sender fills the buffer and blocks.
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::pthread_kill(sender, SIGUSR1);
  }
  LineReader reader(fds[1]);
  std::string line;
  ASSERT_EQ(reader.next(line), kLine);
  EXPECT_EQ(line.size(), payload.size());
  EXPECT_EQ(line, payload);
  EXPECT_TRUE(sent.get());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Transport, LineReaderCutsLinesAndDropsAnUnterminatedTail) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(send_all(fds[0], "one\n\ntwo\r\ntail"));
  ::close(fds[0]);
  LineReader reader(fds[1]);
  std::string line;
  ASSERT_EQ(reader.next(line), kLine);
  EXPECT_EQ(line, "one");
  ASSERT_EQ(reader.next(line), kLine);
  EXPECT_EQ(line, "");
  ASSERT_EQ(reader.next(line), kLine);
  EXPECT_EQ(line, "two\r");
  EXPECT_EQ(reader.next(line), kEof);
  ::close(fds[1]);
}

TEST(Transport, LineReaderReportsALineOverItsBound) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(send_all(fds[0], "short\n0123456789"));
  LineReader reader(fds[1], 8);
  std::string line;
  ASSERT_EQ(reader.next(line), kLine);
  EXPECT_EQ(line, "short");
  EXPECT_EQ(reader.next(line), LineReader::Status::too_long);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Transport, ConnectFailuresNameTheTarget) {
  const std::string missing = ::testing::TempDir() + "pim-no-such-daemon.sock";
  try {
    connect_unix(missing);
    FAIL() << "connected to a missing socket";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::io_parse);
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos) << e.what();
  }
  try {
    connect_unix(std::string(200, 'p'));
    FAIL() << "accepted a path longer than sun_path";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
  }
}

TEST(Serve, FullQueueRejectsWithOverloaded) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  options.queue_limit = 1;
  Server server(options);
  server.start();

  ClientSocket client(connect_tcp(server.tcp_port()));
  const int fd = client.fd();
  LineReader reader(fd);
  // Occupy the single worker with a deterministic multi-second batch,
  // wait until it is picked up (queue drains), then fill the queue and
  // overflow it. The waits make the rejection deterministic, not timed.
  // A wait that gives up fails this test here, before any response is read.
  ASSERT_TRUE(send_all(fd, big_techfile_batch(5000) + "\n"));
  ASSERT_NO_FATAL_FAILURE(wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 1.0 && stat(v, "queue_depth") == 0.0;
  }));
  ASSERT_TRUE(send_all(fd, "{\"op\":\"techfile\",\"id\":201,\"tech\":\"65nm\"}\n"));
  ASSERT_NO_FATAL_FAILURE(wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 2.0;
  }));
  ASSERT_TRUE(send_all(fd, "{\"op\":\"techfile\",\"id\":202,\"tech\":\"65nm\"}\n"));

  // Responses stay in request order: batch, queued single, rejection.
  std::string batch_response, queued_response, rejection;
  ASSERT_EQ(reader.next(batch_response), kLine);
  EXPECT_NE(batch_response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(batch_response.find("\"failed\":0"), std::string::npos);
  ASSERT_EQ(reader.next(queued_response), kLine);
  EXPECT_NE(queued_response.find("\"id\":201"), std::string::npos);
  EXPECT_NE(queued_response.find("\"ok\":true"), std::string::npos);
  ASSERT_EQ(reader.next(rejection), kLine);
  const obs::JsonValue v = obs::parse_json(rejection);
  ASSERT_NE(v.find("id"), nullptr) << rejection;
  EXPECT_EQ(v.find("id")->number, 202.0);
  ASSERT_NE(v.find("ok"), nullptr) << rejection;
  EXPECT_FALSE(v.find("ok")->boolean);
  const obs::JsonValue* error = v.find("error");
  ASSERT_NE(error, nullptr) << rejection;
  ASSERT_NE(error->find("code"), nullptr) << rejection;
  EXPECT_EQ(error->find("code")->text, "overloaded");

  const obs::JsonValue stats = obs::parse_json(server.stats_json());
  EXPECT_EQ(stat(stats, "rejected"), 1.0);
  client.close();
  server.stop();
}

TEST(Serve, StatsAnswersInlineEvenWhileTheWorkerIsBusy) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  Server server(options);
  server.start();

  const int busy_fd = connect_tcp(server.tcp_port());
  LineReader busy_reader(busy_fd);
  ASSERT_TRUE(send_all(busy_fd, big_techfile_batch(5000) + "\n"));
  wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 1.0;
  });

  // A second connection gets stats immediately — the reader answers it
  // without going through the (occupied) worker queue.
  const int fd = connect_tcp(server.tcp_port());
  LineReader reader(fd);
  ASSERT_TRUE(send_all(fd, "{\"op\":\"stats\",\"id\":9}\n"));
  std::string response;
  ASSERT_EQ(reader.next(response), kLine);
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_EQ(v.find("id")->number, 9.0);
  EXPECT_TRUE(v.find("ok")->boolean);
  const obs::JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("schema")->text, "pim.serve.v1");
  EXPECT_GE(stat(*result, "accepted"), 1.0);
  ::close(fd);

  ASSERT_EQ(busy_reader.next(response), kLine);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  ::close(busy_fd);
  server.stop();
}

TEST(Serve, DrainFlushesInFlightResponsesBeforeClosing) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  Server server(options);
  server.start();

  const int fd = connect_tcp(server.tcp_port());
  LineReader reader(fd);
  ASSERT_TRUE(send_all(fd, big_techfile_batch(5000) + "\n"));
  // Only stop once the request is provably accepted; drain must then
  // finish it and flush the response before the connection drops. Stop
  // runs on another thread while this one keeps reading — the multi-MB
  // batch response cannot fit in the socket buffers, so a client that
  // stopped reading would wedge the flush (and any real client of a
  // draining daemon is mid-read anyway).
  wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 1.0;
  });
  std::thread stopper([&server] { server.stop(); });

  std::string response;
  ASSERT_EQ(reader.next(response), kLine);
  EXPECT_NE(response.find("\"id\":100"), std::string::npos);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(reader.next(response), kEof);  // then EOF: the daemon closed cleanly
  stopper.join();
  ::close(fd);

  const obs::JsonValue stats = obs::parse_json(server.stats_json());
  EXPECT_EQ(stat(stats, "completed"), 1.0);
}

TEST(Serve, ListenersCloseAfterStop) {
  ServerOptions options;
  options.tcp_port = 0;
  Server server(options);
  server.start();
  const int port = server.tcp_port();
  const int fd = connect_tcp(port);
  server.stop();
  // The pre-drain connection's read side is shut; anything buffered gets
  // answered, new connects fail. Either the send fails or the socket is
  // closed — the key invariant is the server came down cleanly.
  EXPECT_THROW(connect_tcp(port), Error) << "listener should be closed after stop()";
  ::close(fd);
}

// Starts a server on `path` while a client spins until the socket file
// appears, then connects at once and sends one request. Returns the
// response line, or what went wrong.
std::string connect_the_moment_the_path_exists(const std::string& path) {
  std::filesystem::remove(path);
  ServerOptions options;
  options.socket_path = path;
  options.workers = 1;
  Server server(options);
  std::atomic<bool> spinning{false};
  std::future<std::string> client = std::async(std::launch::async, [&] {
    spinning.store(true);
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (::access(path.c_str(), F_OK) != 0)
      if (std::chrono::steady_clock::now() > give_up) return std::string("no socket file");
    int fd;
    try {
      fd = connect_unix(path);
    } catch (const Error& e) {
      return std::string("connect refused: ") + e.what();
    }
    std::string response = "no response";
    LineReader reader(fd);
    if (send_all(fd, "{\"op\":\"techfile\",\"id\":7,\"tech\":\"65nm\"}\n"))
      reader.next(response);
    ::close(fd);
    return response;
  });
  while (!spinning.load()) std::this_thread::yield();
  server.start();
  std::string response = client.get();
  server.stop();
  return response;
}

// A client that connects the moment the socket file appears must get
// through: the listener only takes its path after listen(), so there is
// no window in which the path exists but connect() is refused. The gap
// that window used to be is microseconds wide, so four loops race
// thousands of starts side by side to get threads preempted inside it.
TEST(Serve, ClientConnectingTheMomentThePathExistsGetsAResponse) {
  std::vector<std::future<std::string>> loops;
  for (int t = 0; t < 4; ++t)
    loops.push_back(std::async(std::launch::async, [t] {
      const std::string path = ::testing::TempDir() + "pim_serve_race_" +
                               std::to_string(::getpid()) + "_" + std::to_string(t) +
                               ".sock";
      for (int round = 0; round < 500; ++round) {
        const std::string response = connect_the_moment_the_path_exists(path);
        if (response.find("\"id\":7") == std::string::npos)
          return "round " + std::to_string(round) + ": " + response;
      }
      return std::string();
    }));
  for (std::future<std::string>& loop : loops) EXPECT_EQ(loop.get(), "");
}

// stop() right after start() must join every worker: a worker between
// its predicate check and its wait must not miss the drain wake-up. Four
// loops restart servers side by side, so threads get preempted inside
// that window; they run off the test thread, so a lost wake-up fails the
// test instead of hanging it.
TEST(Serve, StopRightAfterStartJoinsEveryWorker) {
  const LogLevel level = log_level();
  set_log_level(LogLevel::Warn);
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread([done] {
    std::vector<std::thread> loops;
    for (int t = 0; t < 4; ++t)
      loops.emplace_back([t] {
        ServerOptions options;
        options.socket_path = ::testing::TempDir() + "pim_serve_restart_" +
                              std::to_string(::getpid()) + "_" + std::to_string(t) +
                              ".sock";
        options.workers = 2;
        for (int i = 0; i < 1000; ++i) {
          Server server(options);
          server.start();
          server.stop();
        }
      });
    for (std::thread& loop : loops) loop.join();
    done->set_value();
  }).detach();
  EXPECT_EQ(finished.wait_for(std::chrono::seconds(60)), std::future_status::ready)
      << "stop() never returned: a worker missed the drain wake-up";
  set_log_level(level);
}

TEST(Serve, ErrorsCountFailedResponsesNotFailedBatchItems) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 2;
  Server server(options);
  server.start();
  const int fd = connect_tcp(server.tcp_port());
  LineReader reader(fd);
  std::string response;

  // The envelope is ok; only the second item failed.
  ASSERT_TRUE(send_all(
      fd, "{\"op\":\"batch\",\"id\":1,\"items\":[{\"op\":\"techfile\",\"tech\":\"65nm\"},"
          "{\"op\":\"techfile\",\"tech\":\"no-such-tech\"}]}\n"));
  ASSERT_EQ(reader.next(response), kLine);
  const obs::JsonValue batch = obs::parse_json(response);
  EXPECT_TRUE(batch.find("ok")->boolean);
  EXPECT_EQ(stat(*batch.find("result"), "failed"), 1.0);
  obs::JsonValue stats = obs::parse_json(server.stats_json());
  EXPECT_EQ(stat(stats, "completed"), 1.0);
  EXPECT_EQ(stat(stats, "errors"), 0.0);

  ASSERT_TRUE(send_all(fd, "this is } not json\n"));
  ASSERT_EQ(reader.next(response), kLine);
  EXPECT_FALSE(obs::parse_json(response).find("ok")->boolean);
  stats = obs::parse_json(server.stats_json());
  EXPECT_EQ(stat(stats, "completed"), 2.0);
  EXPECT_EQ(stat(stats, "errors"), 1.0);
  ::close(fd);
  server.stop();
}

TEST(Serve, PipelinedLinesInOneSendAllComeBackInOrder) {
  constexpr int kLines = 2000;
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 2;
  options.queue_limit = kLines;
  Server server(options);
  server.start();
  const int fd = connect_tcp(server.tcp_port());

  std::string blob;
  for (int i = 0; i < kLines; ++i)
    blob += "{\"op\":\"techfile\",\"id\":" + std::to_string(i) +
            ",\"tech\":\"65nm\"}\n";
  // Written from another thread: the responses (a few MB) must be read
  // while the requests are still going out.
  std::future<bool> sent =
      std::async(std::launch::async, [&] { return send_all(fd, blob); });
  LineReader reader(fd);
  std::string response;
  for (int i = 0; i < kLines; ++i) {
    ASSERT_EQ(reader.next(response), kLine) << "line " << i;
    const obs::JsonValue v = obs::parse_json(response);
    ASSERT_EQ(v.find("id")->number, static_cast<double>(i));
    ASSERT_TRUE(v.find("ok")->boolean) << "line " << i;
  }
  EXPECT_TRUE(sent.get());
  EXPECT_EQ(stat(obs::parse_json(server.stats_json()), "completed"),
            static_cast<double>(kLines));
  ::close(fd);
  server.stop();
}

// Resident and store hit totals from the stats endpoint.
struct HitCounts {
  double resident = 0;
  double store = 0;
};

HitCounts hit_counts(const Server& server) {
  const obs::JsonValue v = obs::parse_json(server.stats_json());
  const obs::JsonValue* cache = v.find("cache");
  return {stat(*cache, "resident_hits"), stat(*cache, "store_hits")};
}

TEST(Serve, BatchStatsCountEveryItemExactlyAtFourWorkers) {
  // A coefficient file makes the 65nm fit resident without
  // characterizing; the scratch cache keeps the store hermetic.
  const std::string dir = ::testing::TempDir() + "pim_serve_batch_stats_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  cache::set_dir(dir + "/cache");
  cache::set_mode(cache::Mode::ReadWrite);
  const Technology& tech = technology(TechNode::N65);
  TechnologyFit fit;
  fit.node = tech.node;
  fit.vdd = tech.vdd;
  RepeaterEdgeFit e;
  e.a0 = 5e-12;
  e.a1 = 0.05;
  e.rho0 = 2e-3;
  e.rho1 = 1e6;
  e.b0 = 2e-12;
  e.b1 = 0.3;
  e.b2 = 5e-4;
  fit.inv_rise = fit.inv_fall = fit.buf_rise = fit.buf_fall = e;
  fit.gamma = 7e-10;
  fit.leakage.n0 = fit.leakage.p0 = 1e-9;
  fit.leakage.n1 = fit.leakage.p1 = 1e-2;
  fit.area0 = 1e-12;
  fit.area1 = 1e-6;
  save_fit(fit, dir + "/coeffs_65nm.pimfit");
  const std::string evaluate = "{\"op\":\"evaluate\",\"link\":{\"tech\":\"65nm\","
                               "\"length_mm\":3.0,\"coeffs_path\":\"" +
                               dir + "/coeffs_65nm.pimfit\"}}";
  const std::string batch =
      "{\"op\":\"batch\",\"items\":[" + evaluate + "," + evaluate + "," + evaluate + "]}";

  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 4;
  Server server(options);
  server.start();
  const int fd = connect_tcp(server.tcp_port());
  LineReader reader(fd);
  std::string response;
  // Cold: loads the file, makes fit and model resident.
  ASSERT_TRUE(send_all(fd, evaluate + "\n"));
  ASSERT_EQ(reader.next(response), kLine);
  ASSERT_NE(response.find("\"ok\":true"), std::string::npos);

  const HitCounts before = hit_counts(server);
  ASSERT_TRUE(send_all(fd, evaluate + "\n"));
  ASSERT_EQ(reader.next(response), kLine);
  ASSERT_NE(response.find("\"ok\":true"), std::string::npos);
  const HitCounts one = hit_counts(server);
  const double per_evaluate = one.resident - before.resident;
  const double store_per_evaluate = one.store - before.store;
  ASSERT_GT(per_evaluate, 0.0);

  ASSERT_TRUE(send_all(fd, batch + "\n"));
  ASSERT_EQ(reader.next(response), kLine);
  ASSERT_NE(response.find("\"failed\":0"), std::string::npos);
  const HitCounts three = hit_counts(server);
  EXPECT_EQ(three.resident - one.resident, 3 * per_evaluate);
  EXPECT_EQ(three.store - one.store, 3 * store_per_evaluate);

  // Eight batches in flight at once over four connections: the four
  // workers run them concurrently and every item still counts once.
  constexpr int kConnections = 4;
  constexpr int kBatchesEach = 2;
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&] {
      const int cfd = connect_tcp(server.tcp_port());
      LineReader creader(cfd);
      for (int b = 0; b < kBatchesEach; ++b) EXPECT_TRUE(send_all(cfd, batch + "\n"));
      std::string cresponse;
      for (int b = 0; b < kBatchesEach; ++b) {
        EXPECT_EQ(creader.next(cresponse), kLine);
        EXPECT_NE(cresponse.find("\"failed\":0"), std::string::npos);
      }
      ::close(cfd);
    });
  }
  for (std::thread& t : clients) t.join();
  const HitCounts all = hit_counts(server);
  EXPECT_EQ(all.resident - three.resident,
            kConnections * kBatchesEach * 3 * per_evaluate);
  EXPECT_EQ(all.store - three.store, kConnections * kBatchesEach * 3 * store_per_evaluate);

  ::close(fd);
  server.stop();
  cache::reset_mode();
  cache::set_dir("");
  std::filesystem::remove_all(dir);
}

// With fault sites armed, each request draws from a stream seeded by its
// own bytes: the batch's between-item stop polls (deadline-expire) cut
// each batch at the same item whichever request ran first.
TEST(Serve, ArmedFaultResponsesDoNotDependOnRequestOrder) {
  const auto techfile_batch = [](int id, int items) {
    std::string line = "{\"op\":\"batch\",\"id\":" + std::to_string(id) + ",\"items\":[";
    for (int i = 0; i < items; ++i)
      line += std::string(i > 0 ? "," : "") + "{\"op\":\"techfile\",\"tech\":\"65nm\"}";
    return line + "]}";
  };
  const std::string first = techfile_batch(1, 12);
  const std::string second = techfile_batch(2, 9);
  const auto serve_in_order = [](const std::vector<std::string>& lines) {
    fault::configure("deadline-expire:0.2:5");
    ServerOptions options;
    options.tcp_port = 0;
    options.workers = 1;
    Server server(options);
    server.start();
    const int fd = connect_tcp(server.tcp_port());
    LineReader reader(fd);
    std::vector<std::string> responses;
    for (const std::string& line : lines) {
      std::string response;
      EXPECT_TRUE(send_all(fd, line + "\n"));
      EXPECT_EQ(reader.next(response), kLine);
      responses.push_back(response);
    }
    ::close(fd);
    server.stop();
    fault::clear();
    return responses;
  };
  const std::vector<std::string> forward = serve_in_order({first, second});
  const std::vector<std::string> reverse = serve_in_order({second, first});
  ASSERT_EQ(forward.size(), 2u);
  ASSERT_EQ(reverse.size(), 2u);
  EXPECT_EQ(forward[0], reverse[1]);
  EXPECT_EQ(forward[1], reverse[0]);
  // The fault must actually fire, or the comparison proves nothing.
  EXPECT_NE(forward[0].find("\"partial\":true"), std::string::npos) << forward[0];
}

TEST(Serve, StartValidatesItsOptions) {
  {
    Server server(ServerOptions{});  // no listener at all
    EXPECT_THROW(server.start(), Error);
  }
  {
    ServerOptions options;
    options.tcp_port = 0;
    options.workers = 0;
    Server server(options);
    EXPECT_THROW(server.start(), Error);
  }
}

}  // namespace
}  // namespace pim::serve
