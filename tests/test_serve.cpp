// The daemon core (src/serve): socket round trips against a real
// in-process Server, protocol error handling, admission control, stats,
// and graceful drain. pimd itself is this Server plus flag parsing; the
// end-to-end binary is exercised by scripts/check_serve.sh.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
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
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace pim::serve {
namespace {

int connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "connect to 127.0.0.1:" << port << ": " << std::strerror(errno);
  return fd;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "connect to " << path << ": " << std::strerror(errno);
  return fd;
}

void send_line(int fd, std::string line) {
  line += '\n';
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

// A buffered line reader over one fd; "" means EOF before a newline.
struct LineReader {
  int fd;
  std::string buffer;

  std::string next() {
    size_t pos;
    char chunk[65536];
    while ((pos = buffer.find('\n')) == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buffer.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buffer.substr(0, pos);
    buffer.erase(0, pos + 1);
    return line;
  }
};

// Spin until the server's own stats report satisfies `done` (stats_json
// is safe from any thread). The predicates below wait on accepted /
// queue_depth transitions, so the assertions that follow are not timing
// guesses.
template <typename Pred>
void wait_for_stats(Server& server, Pred done) {
  for (int i = 0; i < 50000; ++i) {
    const obs::JsonValue v = obs::parse_json(server.stats_json());
    if (done(v)) return;
    ::usleep(100);
  }
  FAIL() << "stats never reached the expected state: " << server.stats_json();
}

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
  LineReader reader{fd, {}};
  send_line(fd, line);
  const std::string from_daemon = reader.next();
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
  LineReader reader{fd, {}};
  send_line(fd, "{\"op\":\"techfile\",\"id\":1,\"tech\":\"45nm\"}");
  const std::string response = reader.next();
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
  LineReader reader{fd, {}};
  send_line(fd, "this is } not json");
  const std::string error_response = reader.next();
  {
    const obs::JsonValue v = obs::parse_json(error_response);
    EXPECT_FALSE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
    EXPECT_EQ(v.find("error")->find("exit_code")->number, 2.0);
  }
  // The same connection keeps serving afterwards.
  send_line(fd, "{\"op\":\"techfile\",\"id\":2,\"tech\":\"65nm\"}");
  const std::string ok_response = reader.next();
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
  LineReader reader{fd, {}};
  send_line(fd, std::string(200000, '['));
  const std::string error_response = reader.next();
  ASSERT_FALSE(error_response.empty()) << "daemon died on a deeply nested line";
  {
    const obs::JsonValue v = obs::parse_json(error_response);
    EXPECT_FALSE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  }
  send_line(fd, "{\"op\":\"techfile\",\"id\":4,\"tech\":\"65nm\"}");
  const std::string ok_response = reader.next();
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
  LineReader reader{fd, {}};
  send_line(fd, "{\"op\":\"techfile\",\"id\":3,\"tech\":\"no-such-tech\"}");
  const std::string response = reader.next();
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_EQ(v.find("id")->number, 3.0);
  EXPECT_FALSE(v.find("ok")->boolean);
  ::close(fd);
  server.stop();
}

TEST(Serve, FullQueueRejectsWithOverloaded) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  options.queue_limit = 1;
  Server server(options);
  server.start();

  const int fd = connect_tcp(server.tcp_port());
  LineReader reader{fd, {}};
  // Occupy the single worker with a deterministic multi-second batch,
  // wait until it is picked up (queue drains), then fill the queue and
  // overflow it. The waits make the rejection deterministic, not timed.
  send_line(fd, big_techfile_batch(5000));
  wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 1.0 && stat(v, "queue_depth") == 0.0;
  });
  send_line(fd, "{\"op\":\"techfile\",\"id\":201,\"tech\":\"65nm\"}");
  wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 2.0;
  });
  send_line(fd, "{\"op\":\"techfile\",\"id\":202,\"tech\":\"65nm\"}");

  // Responses stay in request order: batch, queued single, rejection.
  const std::string batch_response = reader.next();
  EXPECT_NE(batch_response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(batch_response.find("\"failed\":0"), std::string::npos);
  const std::string queued_response = reader.next();
  EXPECT_NE(queued_response.find("\"id\":201"), std::string::npos);
  EXPECT_NE(queued_response.find("\"ok\":true"), std::string::npos);
  const std::string rejection = reader.next();
  const obs::JsonValue v = obs::parse_json(rejection);
  EXPECT_EQ(v.find("id")->number, 202.0);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->text, "overloaded");

  const obs::JsonValue stats = obs::parse_json(server.stats_json());
  EXPECT_EQ(stat(stats, "rejected"), 1.0);
  ::close(fd);
  server.stop();
}

TEST(Serve, StatsAnswersInlineEvenWhileTheWorkerIsBusy) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  Server server(options);
  server.start();

  const int busy_fd = connect_tcp(server.tcp_port());
  LineReader busy_reader{busy_fd, {}};
  send_line(busy_fd, big_techfile_batch(5000));
  wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 1.0;
  });

  // A second connection gets stats immediately — the reader answers it
  // without going through the (occupied) worker queue.
  const int fd = connect_tcp(server.tcp_port());
  LineReader reader{fd, {}};
  send_line(fd, "{\"op\":\"stats\",\"id\":9}");
  const std::string response = reader.next();
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_EQ(v.find("id")->number, 9.0);
  EXPECT_TRUE(v.find("ok")->boolean);
  const obs::JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("schema")->text, "pim.serve.v1");
  EXPECT_GE(stat(*result, "accepted"), 1.0);
  ::close(fd);

  EXPECT_NE(busy_reader.next().find("\"ok\":true"), std::string::npos);
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
  LineReader reader{fd, {}};
  send_line(fd, big_techfile_batch(5000));
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

  const std::string response = reader.next();
  EXPECT_NE(response.find("\"id\":100"), std::string::npos);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(reader.next(), "");  // then EOF: the daemon closed cleanly
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
  const int fd2 = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_NE(::connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "listener should be closed after stop()";
  ::close(fd2);
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
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      return "connect refused: " + why;
    }
    send_line(fd, "{\"op\":\"techfile\",\"id\":7,\"tech\":\"65nm\"}");
    LineReader reader{fd, {}};
    std::string response = reader.next();
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
  LineReader reader{fd, {}};

  // The envelope is ok; only the second item failed.
  send_line(fd,
            "{\"op\":\"batch\",\"id\":1,\"items\":[{\"op\":\"techfile\",\"tech\":\"65nm\"},"
            "{\"op\":\"techfile\",\"tech\":\"no-such-tech\"}]}");
  const obs::JsonValue batch = obs::parse_json(reader.next());
  EXPECT_TRUE(batch.find("ok")->boolean);
  EXPECT_EQ(stat(*batch.find("result"), "failed"), 1.0);
  obs::JsonValue stats = obs::parse_json(server.stats_json());
  EXPECT_EQ(stat(stats, "completed"), 1.0);
  EXPECT_EQ(stat(stats, "errors"), 0.0);

  send_line(fd, "this is } not json");
  EXPECT_FALSE(obs::parse_json(reader.next()).find("ok")->boolean);
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
  std::thread writer([&] {
    size_t off = 0;
    while (off < blob.size()) {
      const ssize_t n = ::send(fd, blob.data() + off, blob.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<size_t>(n);
    }
  });
  LineReader reader{fd, {}};
  for (int i = 0; i < kLines; ++i) {
    const obs::JsonValue v = obs::parse_json(reader.next());
    ASSERT_EQ(v.find("id")->number, static_cast<double>(i));
    ASSERT_TRUE(v.find("ok")->boolean) << "line " << i;
  }
  writer.join();
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
  LineReader reader{fd, {}};
  send_line(fd, evaluate);  // cold: loads the file, makes fit and model resident
  ASSERT_NE(reader.next().find("\"ok\":true"), std::string::npos);

  const HitCounts before = hit_counts(server);
  send_line(fd, evaluate);
  ASSERT_NE(reader.next().find("\"ok\":true"), std::string::npos);
  const HitCounts one = hit_counts(server);
  const double per_evaluate = one.resident - before.resident;
  const double store_per_evaluate = one.store - before.store;
  ASSERT_GT(per_evaluate, 0.0);

  send_line(fd, batch);
  ASSERT_NE(reader.next().find("\"failed\":0"), std::string::npos);
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
      LineReader creader{cfd, {}};
      for (int b = 0; b < kBatchesEach; ++b) send_line(cfd, batch);
      for (int b = 0; b < kBatchesEach; ++b)
        EXPECT_NE(creader.next().find("\"failed\":0"), std::string::npos);
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
