// Tests for the CLI argument parser and global observability flags
// (tools/cli_args), plus an end-to-end check that the pim binary's
// --profile flag emits valid metrics JSON.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../tools/cli_args.hpp"
#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "cache/key.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "cosi/synthesis.hpp"
#include "cosi/testcases.hpp"
#include "exec/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/ledger.hpp"
#include "models/proposed.hpp"
#include "serve/transport.hpp"
#include "sta/calibrated.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/paths.hpp"
#include "util/units.hpp"
#include "util/version.hpp"

namespace pim::cli {
namespace {

Args make(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  static std::vector<char*> argv;
  argv.clear();
  argv.push_back(const_cast<char*>("pim"));
  for (auto& t : storage) argv.push_back(t.data());
  return Args(static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(CliArgs, PositionalsAndFlags) {
  const Args args = make({"evaluate", "65nm", "--length", "5", "--golden"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positional(0), "evaluate");
  EXPECT_EQ(args.positional(1), "65nm");
  EXPECT_EQ(args.positional(9, "dflt"), "dflt");
  EXPECT_TRUE(args.has("length"));
  EXPECT_TRUE(args.has("golden"));
  EXPECT_FALSE(args.has("style"));
  EXPECT_DOUBLE_EQ(args.get_double("length", 0.0), 5.0);
  EXPECT_EQ(args.get("golden"), "");  // switch: no value
}

TEST(CliArgs, TypedGettersWithFallbacks) {
  const Args args =
      make({"--n", "7", "--x", "2.5", "--min", "-2147483648", "--drive", "4294967308"});
  EXPECT_EQ(args.get_long("n", 0), 7);
  EXPECT_EQ(args.get_long("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_THROW(args.get_long("x", 0), Error);  // "2.5" is not an integer
  EXPECT_EQ(args.get_int("n", 0), 7);
  EXPECT_EQ(args.get_int("missing", 12), 12);
  EXPECT_EQ(args.get_int("min", 0), -2147483648);
  // 2^32 + 12 fits a long but not an int: rejected, naming the flag.
  try {
    args.get_int("drive", 12);
    FAIL() << "expected out-of-range";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
    EXPECT_NE(std::string(e.what()).find("--drive"), std::string::npos) << e.what();
  }
}

TEST(CliArgs, IntListChecksEveryEntryAndNamesTheFlag) {
  const Args args = make({"--drives", "2,8,32", "--wrap", "2,4294967308",
                          "--huge", "99999999999999999999"});
  EXPECT_EQ(args.get_int_list("drives"), (std::vector<int>{2, 8, 32}));
  for (const char* flag : {"wrap", "huge"}) {
    try {
      args.get_int_list(flag);
      FAIL() << "expected out-of-range for --" << flag;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::bad_input);
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag), std::string::npos)
          << e.what();
    }
  }
}

TEST(CliArgs, SwitchFollowedByFlag) {
  const Args args = make({"--golden", "--length", "3"});
  EXPECT_TRUE(args.has("golden"));
  EXPECT_EQ(args.get("golden"), "");
  EXPECT_DOUBLE_EQ(args.get_double("length", 0.0), 3.0);
}

TEST(CliArgs, UnknownFlagCheck) {
  const Args args = make({"--length", "3", "--bogus"});
  EXPECT_THROW(args.check_known({"length"}), Error);
  EXPECT_NO_THROW(args.check_known({"length", "bogus"}));
}

TEST(CliArgs, BareDoubleDashRejected) {
  EXPECT_THROW(make({"--"}), Error);
}

TEST(CliArgs, GlobalFlagsPassUnknownCheck) {
  const Args args = make({"evaluate", "--length", "3", "--profile", "out.json",
                          "--trace", "out.trace.json", "--log-level", "debug"});
  EXPECT_THROW(args.check_known({"length"}), Error);
  EXPECT_NO_THROW(check_known_with_globals(args, {"length"}));
}

TEST(CliArgs, ApplyGlobalFlagsRejectsBadLogLevel) {
  EXPECT_THROW(apply_global_flags(make({"--log-level", "loud"})), Error);
  EXPECT_THROW(apply_global_flags(make({"--trace"})), Error);  // needs a path
}

TEST(CliArgs, ThreadsFlagPinsTheEngine) {
  exec::set_threads(0);
  apply_global_flags(make({"--threads", "3"}));
  EXPECT_EQ(exec::threads(), 3);
  exec::set_threads(0);
  EXPECT_THROW(apply_global_flags(make({"--threads", "0"})), Error);
  EXPECT_THROW(apply_global_flags(make({"--threads", "-2"})), Error);
  EXPECT_THROW(apply_global_flags(make({"--threads"})), Error);  // needs a value
  EXPECT_THROW(apply_global_flags(make({"--threads", "many"})), Error);
  const Args args = make({"yield", "--threads", "4"});
  EXPECT_NO_THROW(check_known_with_globals(args, {}));
  exec::set_threads(0);
}

TEST(CliArgs, ProfileFlagEnablesCollection) {
  obs::set_enabled(false);
  apply_global_flags(make({"--profile", "out.json"}));
  EXPECT_TRUE(obs::enabled());
  obs::set_enabled(false);
}

TEST(CliArgs, WriteReportsProducesParsableJsonFile) {
  obs::registry().reset();
  obs::set_enabled(true);
  obs::registry().counter("cli.test.count").add(3);
  const std::string path = ::testing::TempDir() + "pim_cli_profile.json";
  write_observability_reports(make({"--profile", path}));
  obs::set_enabled(false);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const obs::JsonValue root = obs::parse_json(buf.str());
  ASSERT_NE(root.find("schema"), nullptr);
  EXPECT_EQ(root.find("schema")->text, "pim.metrics.v1");
  const obs::JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("cli.test.count"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("cli.test.count")->number, 3.0);
  std::remove(path.c_str());
  obs::registry().reset();
}

// End-to-end: run the actual pim binary with --profile and check the
// emitted JSON carries the command's metrics. `techfile` is the cheapest
// subcommand (no characterization).
TEST(CliProfile, BinaryWritesValidMetricsJson) {
  const std::string out = ::testing::TempDir() + "pim_techfile_profile.json";
  const std::string cmd = std::string(PIM_CLI_PATH) + " techfile 45nm --profile " +
                          out + " --log-level off > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  std::ifstream in(out);
  ASSERT_TRUE(in.good()) << "profile file not written: " << out;
  std::stringstream buf;
  buf << in.rdbuf();
  const obs::JsonValue root = obs::parse_json(buf.str());
  ASSERT_EQ(root.kind, obs::JsonValue::Kind::Object);
  ASSERT_NE(root.find("schema"), nullptr);
  EXPECT_EQ(root.find("schema")->text, "pim.metrics.v1");
  ASSERT_NE(root.find("counters"), nullptr);
  ASSERT_NE(root.find("timers"), nullptr);
  // The command's own span must be present with one recorded run.
  const obs::JsonValue* timer = root.find("timers")->find("cli.techfile");
  ASSERT_NE(timer, nullptr);
  ASSERT_NE(timer->find("count"), nullptr);
  EXPECT_DOUBLE_EQ(timer->find("count")->number, 1.0);
  EXPECT_GT(timer->find("total_ns")->number, 0.0);
  std::remove(out.c_str());
}

// Exit-code contract: 0 ok, 2 usage, 3 runtime failure, 4 internal.
// std::system returns a wait status, so unwrap it before comparing.
int run_cli(const std::string& tail) {
  const std::string cmd =
      std::string(PIM_CLI_PATH) + " " + tail + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliExitCodes, NoArgumentsIsUsageError) {
  EXPECT_EQ(run_cli(""), 2);
}

TEST(CliExitCodes, MissingRequiredFlagIsUsageError) {
  EXPECT_EQ(run_cli("evaluate 65nm"), 2);  // --length missing
}

TEST(CliExitCodes, ThreadsFlagAcceptedOnAnyCommand) {
  EXPECT_EQ(run_cli("techfile 45nm --threads 2"), 0);
  EXPECT_EQ(run_cli("techfile 45nm --threads 0"), 2);   // must be >= 1
  EXPECT_EQ(run_cli("techfile 45nm --threads junk"), 2);
}

TEST(CliExitCodes, IntegerFlagOutsideIntIsUsageError) {
  // 4294967308 = 2^32 + 12: a truncating cast would silently read drive 12.
  EXPECT_EQ(run_cli("export 65nm --length 1 --drive 4294967308"), 2);
  EXPECT_EQ(run_cli("export 65nm --length 1 --drive 99999999999999999999"), 2);
  EXPECT_EQ(run_cli("characterize 65nm --drives 2,4294967308"), 2);
}

// Out-of-range link inputs are usage errors caught at the api boundary,
// before any calibration runs, never an internal failure deeper down.
TEST(CliExitCodes, ZeroDriveIsUsageError) {
  EXPECT_EQ(run_cli("evaluate 65nm --length 3 --drive 0"), 2);
}

TEST(CliExitCodes, ZeroCharacterizationDriveIsUsageError) {
  EXPECT_EQ(run_cli("characterize 65nm --drives 0"), 2);
  EXPECT_EQ(run_cli("characterize 65nm --drives 4,-2"), 2);
}

TEST(CliExitCodes, BufferWeightOutsideUnitIntervalIsUsageError) {
  EXPECT_EQ(run_cli("buffer 65nm --length 3 --weight 7"), 2);
  EXPECT_EQ(run_cli("buffer 65nm --length 3 --weight -0.5"), 2);
}

TEST(CliExitCodes, MissingInputFileIsRuntimeError) {
  EXPECT_EQ(run_cli("noc /nonexistent/pim_missing.soc 65nm"), 3);
}

// A malformed input file is a runtime failure (io_parse, exit 3), not an
// internal error.
TEST(CliExitCodes, MalformedInputFileIsRuntimeError) {
  const std::string tech = ::testing::TempDir() + "pim_cli_bad.tech";
  std::ofstream(tech) << "technology \"45nm\" {\n  vdd 1.1 volts\n}\n";
  EXPECT_EQ(run_cli("techfile " + tech), 3);
  const std::string soc = ::testing::TempDir() + "pim_cli_bad.soc";
  std::ofstream(soc) << "soc \"bad\" {\n  die 0.006\n}\n";
  EXPECT_EQ(run_cli("noc " + soc + " 45nm"), 3);
  std::remove(tech.c_str());
  std::remove(soc.c_str());
}

TEST(CliExitCodes, UnknownFaultSiteIsUsageError) {
  EXPECT_EQ(run_cli("techfile 45nm --inject-fault bogus.site"), 2);
}

TEST(CliExitCodes, InjectedIoFaultIsRuntimeError) {
  const std::string deck = ::testing::TempDir() + "pim_cli_fault_deck.sp";
  EXPECT_EQ(run_cli("export 45nm --length 1 --deck " + deck +
                    " --inject-fault io.open:1"),
            3);
  std::remove(deck.c_str());
}

// One exit-code contract across both surfaces (docs/api.md): the number
// cli::exit_code_for maps an Error to is the same number the wire
// protocol embeds as "exit_code" in every error envelope.
TEST(CliExitCodes, ContractMatchesTheWireEnvelope) {
  using pim::Error;
  using pim::ErrorCode;
  const auto code = [](ErrorCode c) {
    return exit_code_for(Error("probe", c));
  };
  EXPECT_EQ(code(ErrorCode::bad_input), 2);
  EXPECT_EQ(code(ErrorCode::internal), 4);
  EXPECT_EQ(code(ErrorCode::deadline_exceeded), 5);
  EXPECT_EQ(code(ErrorCode::cancelled), 5);
  EXPECT_EQ(code(ErrorCode::io_parse), 3);
  EXPECT_EQ(code(ErrorCode::overloaded), 3);
  EXPECT_EQ(code(ErrorCode::singular_matrix), 3);
  EXPECT_EQ(code(ErrorCode::bad_input), api::wire::exit_code_for(ErrorCode::bad_input));
  EXPECT_EQ(code(ErrorCode::internal), api::wire::exit_code_for(ErrorCode::internal));
  EXPECT_EQ(code(ErrorCode::cancelled), api::wire::exit_code_for(ErrorCode::cancelled));
  EXPECT_EQ(code(ErrorCode::io_parse), api::wire::exit_code_for(ErrorCode::io_parse));
}

// `pim serve` exits with the worst exit_code any response carried, so
// scripted wire sessions compose with the same contract.
int run_cli_stdin(const std::string& input, const std::string& tail) {
  const std::string cmd = "printf '%s\\n' '" + input + "' | " +
                          std::string(PIM_CLI_PATH) + " " + tail +
                          " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliServeExitCodes, NoTransportSelectedIsUsageError) {
  EXPECT_EQ(run_cli("serve"), 2);
  EXPECT_EQ(run_cli("serve --local --socket /tmp/x.sock"), 2);  // exclusive
}

TEST(CliServeExitCodes, LocalSuccessIsZero) {
  EXPECT_EQ(run_cli_stdin("{\"op\":\"techfile\",\"tech\":\"45nm\"}",
                          "serve --local"),
            0);
}

TEST(CliServeExitCodes, MalformedLineIsUsageError) {
  EXPECT_EQ(run_cli_stdin("not json", "serve --local"), 2);
}

TEST(CliServeExitCodes, WorstResponseWins) {
  // A good line followed by a malformed one: the session exits 2.
  const std::string input =
      "{\"op\":\"techfile\",\"tech\":\"45nm\"}\\nnot json";
  EXPECT_EQ(run_cli_stdin(input, "serve --local"), 2);
}

TEST(CliServeExitCodes, ConnectFailureIsRuntimeError) {
  EXPECT_EQ(run_cli_stdin("{\"op\":\"techfile\",\"tech\":\"45nm\"}",
                          "serve --socket /tmp/pim-no-such-daemon.sock"),
            3);
}

// What `pim serve --socket` exits with when a fake daemon answers its one
// request with `response`. The fake binds, listens and accepts on its
// own; the line traffic goes through the shared transport.
int serve_exit_against(const std::string& response) {
  const std::string path =
      ::testing::TempDir() + "pim_fake_daemon_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(listener, 1), 0);
  std::thread daemon([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;  // the client never came; shutdown below woke us
    serve::LineReader reader(fd);
    std::string request;
    while (reader.next(request) == serve::LineReader::Status::line)
      serve::send_all(fd, response + "\n");
    ::close(fd);
  });
  const int code =
      run_cli_stdin("{\"op\":\"techfile\",\"tech\":\"45nm\"}", "serve --socket " + path);
  ::shutdown(listener, SHUT_RDWR);
  daemon.join();
  ::close(listener);
  ::unlink(path.c_str());
  return code;
}

std::string failed_response(const std::string& exit_code) {
  return "{\"ok\":false,\"error\":{\"code\":\"internal\",\"message\":\"fake\","
         "\"exit_code\":" + exit_code + "}}";
}

TEST(CliServeExitCodes, DaemonExitCodeComesThroughTheSocket) {
  EXPECT_EQ(serve_exit_against(failed_response("3")), 3);
  EXPECT_EQ(serve_exit_against("{\"ok\":true,\"result\":{}}"), 0);
}

// An exit_code outside the integers 1..255 is a malformed response, like
// one that does not parse: internal (4), never a silent 0.
TEST(CliServeExitCodes, MalformedDaemonExitCodeIsInternal) {
  for (const char* bad : {"1e300", "-1", "2.5", "0", "256", "\"3\""})
    EXPECT_EQ(serve_exit_against(failed_response(bad)), 4) << "exit_code " << bad;
  EXPECT_EQ(serve_exit_against("not json"), 4);
}

TEST(CliServeExitCodes, DeadlineStopIsPartialExit) {
  // The deadline-expire fault site makes the first deadline poll fire, so
  // the stop is deterministic, not a wall-clock race. exit_code 5 rides
  // the error envelope back through the client.
  EXPECT_EQ(run_cli_stdin(
                "{\"op\":\"fit\",\"tech\":\"45nm\",\"deadline_ms\":60000}",
                "serve --local --cache off --inject-fault deadline-expire:1"),
            5);
}

// ---------------------------------------------------------------------------
// run ledger (docs/observability.md): one JSON-lines record per run
// ---------------------------------------------------------------------------

std::vector<obs::JsonValue> read_ledger(const std::string& path) {
  std::ifstream in(path);
  std::vector<obs::JsonValue> records;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) records.push_back(obs::parse_json(line));
  return records;
}

TEST(CliLedger, BinaryAppendsOneRecordPerRunIncludingFailures) {
  const std::string dir = ::testing::TempDir() + "pim_cli_ledger";
  std::filesystem::remove_all(dir);
  // A run that succeeds, then one that fails flag validation (exit 2):
  // both must land in the same ledger, in run order, with their codes.
  EXPECT_EQ(run_cli("techfile 45nm --out-dir " + dir + " --log-level off"), 0);
  EXPECT_EQ(run_cli("techfile 45nm --out-dir " + dir + " --bogus-flag"), 2);

  const auto records = read_ledger(dir + "/ledger.jsonl");
  ASSERT_EQ(records.size(), 2u);

  const obs::JsonValue& ok = records[0];
  EXPECT_EQ(ok.find("schema")->text, "pim.ledger.v1");
  EXPECT_EQ(ok.find("command")->text, "techfile");
  EXPECT_DOUBLE_EQ(ok.find("exit_code")->number, 0.0);
  EXPECT_GT(ok.find("wall_ns")->number, 0.0);
  EXPECT_GT(ok.find("peak_rss_bytes")->number, 0.0);
  ASSERT_NE(ok.find("version"), nullptr);
  EXPECT_EQ(ok.find("version")->find("pim")->text, kVersion);
  ASSERT_NE(ok.find("flags"), nullptr);
  EXPECT_EQ(ok.find("flags")->find("out-dir")->text, dir);
  // proc.* gauges ride along in every record, profile flag or not.
  const obs::JsonValue* gauges = ok.find("metrics")->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_GT(gauges->find("proc.peak_rss_bytes")->number, 0.0);
  EXPECT_GT(gauges->find("proc.wall_ns")->number, 0.0);

  EXPECT_DOUBLE_EQ(records[1].find("exit_code")->number, 2.0);
  std::filesystem::remove_all(dir);
}

TEST(CliLedger, OffSwitchSuppressesTheLedger) {
  const std::string dir = ::testing::TempDir() + "pim_cli_ledger_off";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(run_cli("techfile 45nm --out-dir " + dir + " --ledger off"), 0);
  EXPECT_FALSE(std::filesystem::exists(dir + "/ledger.jsonl"));
  std::filesystem::remove_all(dir);
}

TEST(CliLedger, EnvVarSuppressesButExplicitFlagWins) {
  const std::string dir = ::testing::TempDir() + "pim_cli_ledger_env";
  std::filesystem::remove_all(dir);
  const std::string env = "PIM_LEDGER=off ";
  const std::string cmd = env + std::string(PIM_CLI_PATH) +
                          " techfile 45nm --out-dir " + dir +
                          " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()) , 0);
  EXPECT_FALSE(std::filesystem::exists(dir + "/ledger.jsonl"));

  const std::string forced = env + std::string(PIM_CLI_PATH) +
                             " techfile 45nm --out-dir " + dir +
                             " --ledger ledger.jsonl > /dev/null 2>&1";
  ASSERT_EQ(std::system(forced.c_str()), 0);
  EXPECT_EQ(read_ledger(dir + "/ledger.jsonl").size(), 1u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// --flag=value binding and the declarative registry
// ---------------------------------------------------------------------------

TEST(CliArgs, EqualsFormBindsValues) {
  const Args args = make({"evaluate", "65nm", "--length=5", "--style=DS", "--golden"});
  EXPECT_EQ(args.positionals().size(), 2u);
  EXPECT_DOUBLE_EQ(args.get_double("length", 0.0), 5.0);
  EXPECT_EQ(args.get("style"), "DS");
  EXPECT_TRUE(args.has("golden"));
  // An explicit empty value is still a value, not a switch.
  EXPECT_EQ(make({"--style="}).get("style", "x"), "");
  EXPECT_THROW(make({"--=value"}), Error);  // nameless flag
}

TEST(CliRegistry, UsageListsEveryCommandAndGlobalFlag) {
  const std::string usage = usage_text();
  for (const CommandSpec& spec : command_registry())
    EXPECT_NE(usage.find(spec.name), std::string::npos) << spec.name;
  for (const FlagSpec& flag : global_flag_specs())
    EXPECT_NE(usage.find("--" + flag.name), std::string::npos) << flag.name;
  EXPECT_NE(usage.find("exit codes"), std::string::npos);
}

TEST(CliRegistry, HelpTextCoversEveryDeclaredFlag) {
  for (const CommandSpec& spec : command_registry()) {
    ASSERT_EQ(find_command(spec.name), &spec);
    const std::string help = help_text(spec);
    EXPECT_NE(help.find(spec.name), std::string::npos);
    for (const FlagSpec& flag : spec.flags)
      EXPECT_NE(help.find("--" + flag.name), std::string::npos)
          << spec.name << " is missing --" << flag.name;
  }
  EXPECT_EQ(find_command("frobnicate"), nullptr);
}

TEST(CliRegistry, CheckKnownForAcceptsDeclaredAndGlobalFlags) {
  const CommandSpec* spec = find_command("evaluate");
  ASSERT_NE(spec, nullptr);
  EXPECT_NO_THROW(check_known_for(
      make({"evaluate", "65nm", "--length", "5", "--threads", "2", "--cache", "off"}),
      *spec));
  EXPECT_THROW(check_known_for(make({"evaluate", "65nm", "--bogus"}), *spec), Error);
}

TEST(CliArgs, CacheFlagsPinModeAndDirectory) {
  cache::reset_mode();
  apply_global_flags(make({"--cache", "off"}));
  EXPECT_EQ(cache::mode(), cache::Mode::Off);
  apply_global_flags(make({"--cache=ro"}));
  EXPECT_EQ(cache::mode(), cache::Mode::ReadOnly);
  EXPECT_THROW(apply_global_flags(make({"--cache", "bogus"})), Error);
  EXPECT_THROW(apply_global_flags(make({"--cache"})), Error);  // needs a value
  cache::reset_mode();

  const std::string dir = ::testing::TempDir() + "pim_cli_cache_dir";
  apply_global_flags(make({"--cache-dir", dir}));
  EXPECT_EQ(cache::dir(), dir);
  EXPECT_THROW(apply_global_flags(make({"--cache-dir"})), Error);
  cache::set_dir("");
}

TEST(CliArgs, OutDirFlagConfiguresArtifactRoot) {
  set_out_dir("");
  const std::string dir = ::testing::TempDir() + "pim_cli_out_dir";
  apply_global_flags(make({"--out-dir", dir}));
  EXPECT_TRUE(out_dir_configured());
  EXPECT_EQ(out_dir(), dir);
  EXPECT_THROW(apply_global_flags(make({"--out-dir"})), Error);
  set_out_dir("");
}

// Relative --profile paths land under --out-dir when one is configured.
TEST(CliArgs, ReportsResolveUnderOutDir) {
  obs::registry().reset();
  const std::string dir = ::testing::TempDir() + "pim_cli_report_out";
  std::filesystem::remove_all(dir);
  apply_global_flags(make({"--out-dir", dir, "--profile", "nested_profile.json"}));
  obs::registry().counter("cli.outdir.count").add(1);
  write_observability_reports(make({"--profile", "nested_profile.json"}));
  obs::set_enabled(false);
  set_out_dir("");
  std::ifstream in(dir + "/nested_profile.json");
  EXPECT_TRUE(in.good());
  std::filesystem::remove_all(dir);
  obs::registry().reset();
}

TEST(CliExitCodes, HelpScreensExitZero) {
  EXPECT_EQ(run_cli("--help"), 0);
  EXPECT_EQ(run_cli("help"), 0);
  EXPECT_EQ(run_cli("evaluate --help"), 0);
}

TEST(CliExitCodes, UnknownCommandIsUsageError) {
  EXPECT_EQ(run_cli("frobnicate"), 2);
}

// ---------------------------------------------------------------------------
// pim cache: provenance-aware administration and invalidation
// ---------------------------------------------------------------------------

std::string run_cli_capture(const std::string& tail, int* exit_code = nullptr) {
  const std::string cmd = std::string(PIM_CLI_PATH) + " " + tail + " 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  std::string out;
  if (pipe != nullptr) {
    char buf[512];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
    const int status = ::pclose(pipe);
    if (exit_code != nullptr)
      *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  } else if (exit_code != nullptr) {
    *exit_code = -1;
  }
  return out;
}

TEST(CliCache, ActionValidation) {
  EXPECT_EQ(run_cli("cache"), 2);           // missing action
  EXPECT_EQ(run_cli("cache frobnicate"), 2);
  EXPECT_EQ(run_cli("cache diff"), 2);      // diff needs a tech spec
  EXPECT_EQ(run_cli("cache invalidate"), 2);
}

TEST(CliCache, StatsDiffInvalidateFlowAgainstEditedTechfile) {
  const std::string dir = ::testing::TempDir() + "pim_cli_cache_flow";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string cache = dir + "/cache";
  const std::string tech = dir + "/edit.tech";
  const std::string common =
      " --cache-dir " + cache + " --out-dir " + dir + " --log-level off";

  // Materialize a tech file and warm the cache with a fit keyed on it.
  ASSERT_EQ(std::system((std::string(PIM_CLI_PATH) + " techfile 45nm > " + tech +
                         " 2>/dev/null")
                            .c_str()),
            0);
  ASSERT_EQ(run_cli("fit " + tech + common), 0);

  int rc = -1;
  std::string out = run_cli_capture("cache stats" + common, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("fit"), std::string::npos);

  out = run_cli_capture("cache verify" + common, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("scrubbed 0"), std::string::npos);

  // Unedited: the whole cache is reusable.
  out = run_cli_capture("cache diff " + tech + common, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("0 dirty"), std::string::npos);

  // Edit the file, then diff: the fit's cone goes stale; invalidate
  // evicts it and leaves an empty cache behind.
  ASSERT_EQ(std::system(("sed -i '0,/vth /s/vth [0-9.]*/vth 0.399/' " + tech).c_str()),
            0);
  out = run_cli_capture("cache diff " + tech + common, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out.find("0 dirty"), std::string::npos);
  EXPECT_NE(out.find("dirty"), std::string::npos);

  out = run_cli_capture("cache invalidate " + tech + common, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("evicted"), std::string::npos);

  out = run_cli_capture("cache stats" + common, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("total 0 bytes"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliCache, PruneHonorsByteBudget) {
  const std::string dir = ::testing::TempDir() + "pim_cli_cache_prune";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string common = " --cache-dir " + dir + "/cache --out-dir " + dir +
                             " --log-level off";
  ASSERT_EQ(run_cli("fit 45nm" + common), 0);
  int rc = -1;
  const std::string out =
      run_cli_capture("cache prune --budget-bytes 0" + common, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("pruned"), std::string::npos);
  EXPECT_NE(run_cli_capture("cache stats" + common, &rc).find("total 0 bytes"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliTechSpec, TechfilePathAcceptedWhereverATechNameIs) {
  const std::string dir = ::testing::TempDir() + "pim_cli_techspec";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string tech = dir + "/n45.tech";
  ASSERT_EQ(std::system((std::string(PIM_CLI_PATH) + " techfile 45nm > " + tech +
                         " 2>/dev/null")
                            .c_str()),
            0);
  // The dump of a file-loaded tech equals the builtin's dump: the two
  // spec forms resolve to identical descriptors (and share cache keys).
  int rc = -1;
  const std::string via_file = run_cli_capture("techfile " + tech, &rc);
  EXPECT_EQ(rc, 0);
  const std::string via_name = run_cli_capture("techfile 45nm", &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(via_file, via_name);
  EXPECT_EQ(run_cli("techfile " + dir + "/missing.tech"), 2);
  std::filesystem::remove_all(dir);
}

TEST(CliExitCodes, BadCacheModeIsUsageError) {
  EXPECT_EQ(run_cli("techfile 45nm --cache bogus"), 2);
  EXPECT_EQ(run_cli("techfile 45nm --cache=off"), 0);
}

TEST(CliExitCodes, UnknownCornerIsUsageError) {
  EXPECT_EQ(run_cli("evaluate 45nm --length 1 --corner bogus"), 2);
  EXPECT_EQ(run_cli("signoff 45nm --length 1 --corners nominal,bogus"), 2);
}

// ---------------------------------------------------------------------------
// --deadline-ms / PIM_DEADLINE_MS and the partial-result exit code (5)
// ---------------------------------------------------------------------------

TEST(CliArgs, DeadlineFlagResolvesWithEnvFallback) {
  ::unsetenv("PIM_DEADLINE_MS");
  EXPECT_EQ(resolved_deadline_ms(make({"techfile", "45nm"})), 0);
  EXPECT_EQ(resolved_deadline_ms(make({"--deadline-ms", "1500"})), 1500);
  EXPECT_THROW(apply_global_flags(make({"--deadline-ms", "-5"})), Error);
  EXPECT_THROW(apply_global_flags(make({"--deadline-ms"})), Error);

  ::setenv("PIM_DEADLINE_MS", "700", 1);
  EXPECT_EQ(resolved_deadline_ms(make({"techfile", "45nm"})), 700);
  // The explicit flag always beats the environment.
  EXPECT_EQ(resolved_deadline_ms(make({"--deadline-ms", "2"})), 2);
  ::setenv("PIM_DEADLINE_MS", "-1", 1);
  EXPECT_THROW(resolved_deadline_ms(make({"techfile", "45nm"})), Error);
  ::unsetenv("PIM_DEADLINE_MS");
}

TEST(CliExitCodes, DeadlineErrorsMapToExitFive) {
  EXPECT_EQ(exit_code_for(Error("late", ErrorCode::deadline_exceeded)),
            kExitPartial);
  EXPECT_EQ(exit_code_for(Error("stop", ErrorCode::cancelled)), kExitPartial);
  EXPECT_EQ(run_cli("techfile 45nm --deadline-ms 0"), 0);  // 0 = unlimited
  EXPECT_EQ(run_cli("techfile 45nm --deadline-ms -3"), 2);
  EXPECT_EQ(run_cli("techfile 45nm --deadline-ms soon"), 2);
}

TEST(CliExitCodes, ZeroProgressStopIsTypedExitFive) {
  // A charlib sweep stopped before its first item cannot be patched:
  // the run exits 5 through the typed-error path, not 3.
  EXPECT_EQ(run_cli("characterize 65nm --cache off"
                    " --inject-fault deadline-expire:1"),
            kExitPartial);
}

TEST(CliLedger, PartialRunStillPrintsAndLandsInLedger) {
  const std::string dir = ::testing::TempDir() + "pim_cli_ledger_partial";
  std::filesystem::remove_all(dir);
  const std::string out = dir + "/noc.txt";
  std::filesystem::create_directories(dir);
  // cancel-midchunk:1 trips the first stop poll in the merge loop: the
  // pre-merge topology is still reported, then the run exits 5.
  const std::string cmd = std::string(PIM_CLI_PATH) +
                          " noc dvopd 65nm --model bakoglu --out-dir " + dir +
                          " --inject-fault cancel-midchunk:1 --log-level off > " +
                          out + " 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), kExitPartial);

  std::ifstream in(out);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("dvopd"), std::string::npos) << buf.str();
  EXPECT_NE(buf.str().find("links"), std::string::npos) << buf.str();

  const auto records = read_ledger(dir + "/ledger.jsonl");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].find("command")->text, "noc");
  EXPECT_DOUBLE_EQ(records[0].find("exit_code")->number,
                   static_cast<double>(kExitPartial));
  std::filesystem::remove_all(dir);
}

// SIGTERM mid-run trips the cooperative cancel token: the process still
// exits through the normal finish path, so the ledger record and the
// --profile report are flushed rather than lost. --coeffs adds the fit
// and the composition calibration, so the run is still going when the
// signal lands 0.3 s in.
TEST(CliSignals, SigtermMidRunFlushesLedgerAndProfile) {
  const std::string dir = ::testing::TempDir() + "pim_cli_sigterm";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string cmd =
      std::string("sh -c '") + PIM_CLI_PATH + " characterize 65nm --cache off" +
      " --out-dir " + dir + " --profile profile.json --lib " + dir + "/out.lib --coeffs " +
      dir + "/out.pimfit --log-level off > /dev/null 2>&1 & pid=$!; sleep 0.3;" +
      " kill -TERM $pid 2>/dev/null; wait $pid; echo $? > " + dir + "/rc'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  std::ifstream rc_in(dir + "/rc");
  int rc = -1;
  rc_in >> rc;
  EXPECT_EQ(rc, kExitPartial);

  const auto records = read_ledger(dir + "/ledger.jsonl");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].find("schema")->text, "pim.ledger.v1");
  EXPECT_EQ(records[0].find("command")->text, "characterize");
  EXPECT_DOUBLE_EQ(records[0].find("exit_code")->number,
                   static_cast<double>(kExitPartial));
  EXPECT_GT(records[0].find("wall_ns")->number, 0.0);

  std::ifstream in(dir + "/profile.json");
  ASSERT_TRUE(in.good()) << "profile not flushed on SIGTERM";
  std::stringstream buf;
  buf << in.rdbuf();
  const obs::JsonValue root = obs::parse_json(buf.str());
  ASSERT_EQ(root.kind, obs::JsonValue::Kind::Object);
  ASSERT_NE(root.find("schema"), nullptr);
  EXPECT_EQ(root.find("schema")->text, "pim.metrics.v1");
  ASSERT_NE(root.find("counters"), nullptr);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// --version
// ---------------------------------------------------------------------------

TEST(CliVersion, TextCarriesSemverAndFormatVersions) {
  const std::string text = version_text();
  EXPECT_NE(text.find(std::string("pim ") + kVersion), std::string::npos);
  EXPECT_NE(text.find("api-version " + std::to_string(api::kApiVersion)),
            std::string::npos);
  EXPECT_NE(text.find("cache-format " + std::to_string(cache::kFormatVersion)),
            std::string::npos);
  EXPECT_NE(text.find("compiler "), std::string::npos);
}

TEST(CliVersion, BinaryPrintsVersionAndExitsZero) {
  const std::string out = ::testing::TempDir() + "pim_version.txt";
  for (const char* invocation : {"--version", "version", "techfile 45nm --version"}) {
    const std::string cmd = std::string(PIM_CLI_PATH) + " " + invocation + " > " +
                            out + " 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << invocation;
    std::ifstream in(out);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), version_text()) << invocation;
  }
  std::remove(out.c_str());
}

// ---------------------------------------------------------------------------
// pim::api facade round trips (the CLI is a thin printer over these)
// ---------------------------------------------------------------------------

TEST(ApiFacade, VersionMismatchIsBadInputNotMisread) {
  api::TechfileRequest req;
  req.api_version = 99;
  req.tech = "65nm";
  const auto result = api::run_techfile(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::bad_input);
  EXPECT_NE(std::string(result.error().what()).find("api_version"),
            std::string::npos);
}

TEST(ApiFacade, TechfileRoundTrip) {
  api::TechfileRequest req;
  req.tech = "45nm";
  const auto result = api::run_techfile(req);
  ASSERT_TRUE(result.ok()) << result.error().what();
  EXPECT_NE(result.value().text.find("45"), std::string::npos);
}

TEST(ApiFacade, ErrorsComeBackAsExpectedWithApiContext) {
  api::LinkEvalRequest req;
  req.link.tech = "65nm";
  req.link.length_mm = 5.0;
  req.link.style = "XX";  // checked before the expensive calibration
  auto bad_style = api::run_evaluate(req);
  ASSERT_FALSE(bad_style.ok());
  EXPECT_EQ(bad_style.error().code(), ErrorCode::bad_input);
  EXPECT_NE(std::string(bad_style.error().what()).find("pim::api::run_evaluate"),
            std::string::npos);

  req.link.style = "SS";
  req.link.length_mm = 0.0;
  const auto bad_length = api::run_evaluate(req);
  ASSERT_FALSE(bad_length.ok());
  EXPECT_EQ(bad_length.error().code(), ErrorCode::bad_input);

  api::TechfileRequest unknown_tech;
  unknown_tech.tech = "3nm";
  EXPECT_FALSE(api::run_techfile(unknown_tech).ok());
}

TEST(ApiFacade, SynthesisRejectsMeshShapeWithoutMesh) {
  api::SynthesisRequest req;
  req.spec = "dvopd";
  req.tech = "65nm";
  req.model = "bakoglu";  // closed-form: no characterization needed
  req.rows = 4;
  const auto result = api::run_synthesis(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::bad_input);
}

TEST(ApiFacade, SynthesisWithBaselineModelRoundTrip) {
  api::SynthesisRequest req;
  req.spec = "dvopd";
  req.tech = "65nm";
  req.model = "bakoglu";
  req.want_dot = true;
  const auto result = api::run_synthesis(req);
  ASSERT_TRUE(result.ok()) << result.error().what();
  EXPECT_EQ(result.value().spec_name, "dvopd");
  EXPECT_EQ(result.value().model_name, "bakoglu");
  EXPECT_GT(result.value().num_links, 0);
  EXPECT_GT(result.value().dynamic_power_mw, 0.0);
  EXPECT_NE(result.value().dot_text.find("digraph"), std::string::npos);
}

TEST(ApiFacade, SuccessiveRunsUnderOwnShardsDoNotBleedMetrics) {
  // pim::api leaves the process registry alone; a long-lived caller
  // takes one request's metrics from a MetricShard it runs the request
  // under (pimd does this per request). Counts from earlier requests —
  // in the registry or in another request's shard — never reach it.
  const std::string dir = ::testing::TempDir() + "pim_api_shard_" + std::to_string(::getpid());
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
  save_fit(fit, dir + "/coeffs.pimfit");

  api::LinkEvalRequest req;
  req.link.tech = "65nm";
  req.link.length_mm = 3.0;
  req.link.coeffs_path = dir + "/coeffs.pimfit";
  ASSERT_TRUE(api::run_evaluate(req).ok());  // cold: makes the model resident

  obs::set_enabled(true);
  obs::registry().reset();
  obs::Counter& stale = obs::registry().counter("stale.request.count");
  obs::Counter& resident = obs::registry().counter("model.resident.hit");
  stale.add(99);
  std::vector<int64_t> hits;
  for (int run = 0; run < 2; ++run) {
    obs::MetricShard shard;
    {
      obs::ShardScope scope(shard);
      ASSERT_TRUE(api::run_evaluate(req).ok());
    }
    EXPECT_EQ(shard.counted(stale), 0);
    hits.push_back(shard.counted(resident));
    shard.flush();
  }
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1) << "the second request's shard saw the first one's hit";
  EXPECT_EQ(stale.value(), 99) << "a facade call wiped the process registry";
  EXPECT_EQ(resident.value(), 2);

  obs::set_enabled(false);
  obs::registry().reset();
  cache::reset_mode();
  cache::set_dir("");
  std::filesystem::remove_all(dir);
}

// A hand-built 65nm fit: file-backed requests over it never characterize.
TechnologyFit hand_built_fit(const Technology& tech) {
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
  return fit;
}

// A scratch cache directory in read-write mode for one test.
class ScratchCache {
 public:
  explicit ScratchCache(const std::string& name)
      : dir_(::testing::TempDir() + name + "_" + std::to_string(::getpid())) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache::set_dir(dir_ + "/cache");
    cache::set_mode(cache::Mode::ReadWrite);
  }
  ~ScratchCache() {
    clear_resident_fits();
    cache::reset_mode();
    cache::set_dir("");
    std::filesystem::remove_all(dir_);
  }
  std::string path(const std::string& file) const { return dir_ + "/" + file; }

 private:
  std::string dir_;
};

TEST(ApiFacade, ClearResidentFitsDropsResidentModels) {
  // A coefficient file rewritten after clear_resident_fits() must reach
  // every facade op: fit and evaluate answer from the same coefficients.
  const ScratchCache scratch("pim_api_clear_resident");
  const Technology& tech = technology(TechNode::N65);
  const std::string path = scratch.path("coeffs.pimfit");
  const TechnologyFit a = hand_built_fit(tech);
  save_fit(a, path);
  api::LinkEvalRequest eval;
  eval.link.tech = "65nm";
  eval.link.length_mm = 5.0;
  eval.link.coeffs_path = path;
  const auto before = api::run_evaluate(eval);
  ASSERT_TRUE(before.ok()) << before.error().what();

  clear_resident_fits();
  TechnologyFit b = a;
  b.gamma = 1.8e-9;
  save_fit(b, path);
  api::FitRequest fit;
  fit.tech = "65nm";
  fit.coeffs_path = path;
  const auto refit = api::run_fit(fit);
  ASSERT_TRUE(refit.ok()) << refit.error().what();
  EXPECT_EQ(refit.value().fit_text, write_fit(b));

  const auto after = api::run_evaluate(eval);
  ASSERT_TRUE(after.ok()) << after.error().what();
  LinkContext ctx;
  ctx.length = eval.link.length_mm * unit::mm;
  ctx.input_slew = eval.link.input_slew_ps * unit::ps;
  ctx.frequency = tech.clock_frequency;
  LinkDesign design;
  design.drive = eval.link.drive;
  design.num_repeaters = 5;  // one per mm
  const double fresh = ProposedModel(tech, b).evaluate(ctx, design).delay / unit::ps;
  EXPECT_DOUBLE_EQ(after.value().delay_ps, fresh);
  EXPECT_NE(after.value().delay_ps, before.value().delay_ps);
}

TEST(ApiFacade, ProposedSynthesisThroughResidentModelMatchesDirectModel) {
  // run_synthesis evaluates through the resident model, bound to the
  // nominal corner's technology; the NoC it sizes must be the one a
  // model bound to the base technology sizes.
  const ScratchCache scratch("pim_api_synthesis_resident");
  const Technology& tech = technology(TechNode::N65);
  const std::string path = scratch.path("coeffs.pimfit");
  save_fit(hand_built_fit(tech), path);
  api::SynthesisRequest req;
  req.spec = "dvopd";
  req.tech = "65nm";
  req.model = "proposed";
  req.coeffs_path = path;
  const auto result = api::run_synthesis(req);
  ASSERT_TRUE(result.ok()) << result.error().what();
  const api::SynthesisResult& got = result.value();

  // The reference recomputes every link: no cached result is shared.
  cache::set_mode(cache::Mode::Off);
  const NocSynthesisResult ref =
      synthesize_noc(dvopd_spec(), ProposedModel(tech, load_fit(path)));
  const NocMetrics& m = ref.metrics;
  EXPECT_EQ(got.model_name, "proposed");
  EXPECT_GT(got.num_links, 0);
  EXPECT_DOUBLE_EQ(got.dynamic_power_mw, m.dynamic_power() / unit::mW);
  EXPECT_DOUBLE_EQ(got.leakage_power_mw, m.leakage_power() / unit::mW);
  EXPECT_DOUBLE_EQ(got.worst_link_delay_ps, m.worst_link_delay / unit::ps);
  EXPECT_DOUBLE_EQ(got.delay_budget_ps, ref.delay_budget / unit::ps);
  EXPECT_DOUBLE_EQ(got.area_mm2, m.total_area() / unit::mm2);
  EXPECT_EQ(got.num_links, m.num_links);
  EXPECT_EQ(got.num_routers, m.num_routers);
  EXPECT_DOUBLE_EQ(got.avg_hops, m.avg_hops);
  EXPECT_EQ(got.max_hops, m.max_hops);
  EXPECT_EQ(got.merges_applied, ref.merges_applied);
}

}  // namespace
}  // namespace pim::cli
