// pimd — the model-serving daemon (docs/serving.md).
//
// Binds a Unix-domain socket (and/or loopback TCP), then serves
// newline-delimited JSON wire requests (src/api/wire.hpp) until
// SIGINT/SIGTERM trips the cooperative cancel flag, at which point it
// drains gracefully: listeners close, every accepted request finishes
// (in-flight flows degrade to partial results), all responses flush,
// and the run-ledger record is written.
//
// The point of the daemon shape: the process stays alive, so
// technologies, the resident calibrated models, and the on-disk
// result cache stay warm across millions of requests — a warm model
// evaluation costs microseconds instead of a fresh characterization.
//
// Flags: --socket <path>, --tcp <port> (0 = ephemeral, printed on the
// ready line), --workers <n>, --queue <n>, --warm <tech[,tech...]>,
// plus every global pim flag (--threads, --cache, --cache-dir,
// --log-level, --ledger, ...).
#include <cstdio>
#include <sstream>
#include <string>

#include "api/pim_api.hpp"
#include "deadline/deadline.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

#include "cli_args.hpp"

namespace pim {
namespace {

const std::vector<cli::FlagSpec>& pimd_flag_specs() {
  static const std::vector<cli::FlagSpec> flags = {
      {"socket", cli::FlagType::String, "path", "",
       "serve on this Unix-domain socket (replaces an existing file)"},
      {"tcp", cli::FlagType::Int, "port", "",
       "also serve on 127.0.0.1:<port>; 0 binds an ephemeral port"},
      {"workers", cli::FlagType::Int, "n", "1",
       "dispatcher threads (flows parallelize internally via --threads)"},
      {"queue", cli::FlagType::Int, "n", "64",
       "admission limit: pending requests beyond this are rejected as overloaded"},
      {"warm", cli::FlagType::String, "tech[,tech...]", "",
       "calibrate these technologies at startup so first requests hit warm"},
  };
  return flags;
}

std::string pimd_usage() {
  std::ostringstream os;
  os << "usage: pimd [--socket path] [--tcp port] [flags]\n"
     << "  model-serving daemon over the pim wire protocol (docs/serving.md)\n"
     << "flags:\n";
  for (const cli::FlagSpec& f : pimd_flag_specs()) {
    os << "  --" << f.name;
    if (!f.value_name.empty()) os << " " << f.value_name;
    os << "  " << f.help;
    if (!f.default_text.empty()) os << " (default: " << f.default_text << ")";
    os << "\n";
  }
  os << "plus every global pim flag (pim --help lists them)\n"
     << "SIGINT/SIGTERM drain gracefully: accepted requests finish, responses "
        "flush\n";
  return os.str();
}

// Characterize + calibrate each named technology before the listeners
// open, so the very first client request hits the resident model tier.
void warm_techs(const std::string& list) {
  for (const std::string& tech : split(list, ',')) {
    if (tech.empty()) continue;
    log_info("pimd: warming ", tech, "...");
    api::FitRequest req;
    req.tech = tech;
    auto result = api::run_fit(req);
    if (!result.ok()) log_warn("pimd: warm ", tech, " failed: ", result.error().what());
  }
}

int pimd_main(int argc, char** argv) {
  const cli::Args args(argc, argv, 1);
  if (args.has("help")) {
    std::fputs(pimd_usage().c_str(), stdout);
    return 0;
  }
  if (args.has("version")) {
    std::fputs(cli::version_text().c_str(), stdout);
    return 0;
  }
  {
    std::vector<std::string> known;
    for (const cli::FlagSpec& f : pimd_flag_specs()) known.push_back(f.name);
    cli::check_known_with_globals(args, std::move(known));
  }
  fault::configure_from_env();
  cli::apply_global_flags(args);

  serve::ServerOptions options;
  options.socket_path = args.get("socket", "");
  options.tcp_port = args.get_int("tcp", -1);
  options.workers = args.get_int("workers", 1);
  options.queue_limit = args.get_int("queue", 64);

  const int64_t start_ns = obs::now_ns();
  int exit_code = 0;
  try {
    if (args.has("warm")) warm_techs(args.get("warm"));
    serve::Server server(options);
    server.start();
    // Machine-readable ready line on stdout: scripts and tests block on
    // this to learn the resolved ephemeral port.
    std::printf("{\"pimd\":\"ready\",\"socket\":\"%s\",\"tcp_port\":%d}\n",
                options.socket_path.c_str(), server.tcp_port());
    std::fflush(stdout);
    server.run();
  } catch (const Error& e) {
    log_error(e.what());
    exit_code = cli::exit_code_for(e);
  }
  cli::append_run_ledger("pimd", args, exit_code, obs::now_ns() - start_ns);
  return exit_code;
}

}  // namespace
}  // namespace pim

int main(int argc, char** argv) {
  if (!pim::log_level_env_override()) pim::set_log_level(pim::LogLevel::Info);
  // First SIGINT/SIGTERM trips the cooperative cancel flag — Server::run
  // sees it and drains. A second signal kills outright (SA_RESETHAND).
  pim::deadline::install_signal_handlers();
  try {
    return pim::pimd_main(argc, argv);
  } catch (const pim::Error& e) {
    pim::log_error(e.what());
    return pim::cli::exit_code_for(e);
  } catch (const std::exception& e) {
    pim::log_error("internal error: ", e.what());
    return 4;
  }
}
