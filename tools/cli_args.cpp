#include "cli_args.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "cache/store.hpp"
#include "exec/engine.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/paths.hpp"
#include "util/strings.hpp"
#include "util/version.hpp"

namespace pim::cli {
namespace {

// `text` as a long; a missing or malformed value is bad_input naming
// the flag.
long long_flag(const std::string& flag, const std::string& text) {
  require(!text.empty(), "cli: --" + flag + " needs a value", ErrorCode::bad_input);
  try {
    return parse_long(text);
  } catch (const Error& e) {
    throw e.with_context("cli: --" + flag);
  }
}

// `value` as an int; out of range is bad_input naming the flag.
int int_flag(const std::string& flag, long value) {
  require(value >= std::numeric_limits<int>::min() &&
              value <= std::numeric_limits<int>::max(),
          "cli: --" + flag + " is out of range: " + std::to_string(value),
          ErrorCode::bad_input);
  return static_cast<int>(value);
}

}  // namespace

Args::Args(int argc, char** argv, int from) {
  for (int i = from; i < argc; ++i) {
    const std::string token = argv[i];
    if (starts_with(token, "--")) {
      std::string name = token.substr(2);
      require(!name.empty(), "cli: bare '--' is not a flag", ErrorCode::bad_input);
      const size_t eq = name.find('=');
      if (eq != std::string::npos) {
        // --flag=value binds directly, so values may begin with "--".
        require(eq > 0, "cli: '--=' is not a flag", ErrorCode::bad_input);
        flags_[name.substr(0, eq)] = name.substr(eq + 1);
      } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        flags_[name] = argv[++i];
      } else {
        flags_[name] = "";
      }
    } else {
      positionals_.push_back(token);
    }
  }
}

std::string Args::positional(size_t index, const std::string& fallback) const {
  return index < positionals_.size() ? positionals_[index] : fallback;
}

bool Args::has(const std::string& flag) const { return flags_.count(flag) > 0; }

std::string Args::get(const std::string& flag, const std::string& fallback) const {
  const auto it = flags_.find(flag);
  return it == flags_.end() ? fallback : it->second;
}

double Args::get_double(const std::string& flag, double fallback) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return fallback;
  require(!it->second.empty(), "cli: --" + flag + " needs a value",
          ErrorCode::bad_input);
  return parse_double(it->second);
}

long Args::get_long(const std::string& flag, long fallback) const {
  const auto it = flags_.find(flag);
  return it == flags_.end() ? fallback : long_flag(flag, it->second);
}

int Args::get_int(const std::string& flag, int fallback) const {
  return int_flag(flag, get_long(flag, fallback));
}

std::vector<int> Args::get_int_list(const std::string& flag) const {
  std::vector<int> out;
  for (const std::string& entry : split(get(flag), ','))
    out.push_back(int_flag(flag, long_flag(flag, entry)));
  return out;
}

void Args::check_known(const std::vector<std::string>& known) const {
  for (const auto& [flag, value] : flags_) {
    (void)value;
    require(std::find(known.begin(), known.end(), flag) != known.end(),
            "cli: unknown flag '--" + flag + "'", ErrorCode::bad_input);
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

// Link flags shared by the per-link subcommands. Declared once so the
// commands cannot diverge in spelling or semantics.
FlagSpec length_flag() {
  return {"length", FlagType::Double, "mm", "", "wire length in mm (required)"};
}
FlagSpec style_flag() {
  return {"style", FlagType::String, "SS|DS|SH", "SS",
          "wire spacing style: single, double, shielded"};
}
FlagSpec slew_flag() {
  return {"slew", FlagType::Double, "ps", "100", "input slew"};
}
FlagSpec drive_flag() {
  return {"drive", FlagType::Int, "k", "12", "repeater drive strength"};
}
FlagSpec repeaters_flag() {
  return {"repeaters", FlagType::Int, "n", "one per mm", "repeater count"};
}
FlagSpec coeffs_flag() {
  return {"coeffs", FlagType::String, "file", "",
          "coefficient file cache (load if present, else fit and save)"};
}
FlagSpec corner_flag() {
  return {"corner", FlagType::String, "name", "nominal",
          "process corner to evaluate at (docs/corners.md)"};
}
FlagSpec corners_flag(const char* help) {
  return {"corners", FlagType::String, "all|a,b", "all", help};
}

}  // namespace

const std::vector<CommandSpec>& command_registry() {
  static const std::vector<CommandSpec> commands = {
      {"techfile", "<tech>", "dump a technology file", {}},
      {"characterize",
       "<tech>",
       "characterize the repeater library (transistor-level sims)",
       {{"drives", FlagType::String, "2,8,32", "", "drive strengths to characterize"},
        {"lib", FlagType::String, "out.lib", "stdout", "write the Liberty library here"},
        {"coeffs", FlagType::String, "out.pimfit", "",
         "also fit + calibrate and save the coefficient tables"},
        corner_flag()}},
      {"fit",
       "<tech>",
       "characterize + fit + calibrate the coefficient tables",
       {coeffs_flag(), corner_flag()}},
      {"evaluate",
       "<tech>",
       "evaluate one link under the proposed closed-form model",
       {length_flag(), style_flag(), slew_flag(), drive_flag(), repeaters_flag(),
        coeffs_flag(), corner_flag(),
        {"golden", FlagType::Switch, "", "", "also run transistor-level signoff"}}},
      {"buffer",
       "<tech>",
       "search repeater count/size minimizing delay^w * power^(1-w)",
       {length_flag(), style_flag(), slew_flag(),
        {"budget", FlagType::Double, "ps", "", "hard delay constraint"},
        {"weight", FlagType::Double, "w", "0.6", "delay emphasis in [0, 1]"},
        coeffs_flag(), corner_flag()}},
      {"noc",
       "<dvopd|vproc|mpeg4|mwd|spec.soc> <tech>",
       "constraint-driven NoC synthesis for an SoC spec",
       {{"model", FlagType::String, "m", "proposed",
         "interconnect model: proposed, bakoglu, or pamunuwa"},
        {"dot", FlagType::String, "out.dot", "", "write the topology as Graphviz"},
        {"corners", FlagType::String, "all|a,b", "",
         "size links against the worst of these corners (proposed model only)"},
        coeffs_flag()}},
      {"yield",
       "<tech>",
       "Monte-Carlo yield of one link under process variation",
       {length_flag(), style_flag(), slew_flag(),
        {"samples", FlagType::Int, "n", "1000", "Monte-Carlo corners"},
        drive_flag(), repeaters_flag(), coeffs_flag(), corner_flag()}},
      {"signoff",
       "<tech>",
       "multi-corner link signoff: per-corner slack/noise, worst corner",
       {length_flag(), style_flag(), slew_flag(), drive_flag(), repeaters_flag(),
        corners_flag("corners to sign off against"),
        {"period", FlagType::Double, "ps", "one clock period",
         "timing target the slack is measured against"},
        coeffs_flag()}},
      {"noise",
       "<tech>",
       "crosstalk glitch peak: calibrated model vs golden sim",
       {length_flag(), style_flag(), slew_flag(), drive_flag(), coeffs_flag(),
        corner_flag()}},
      {"timer",
       "<tech>",
       "NLDM table timer on the buffered link (AWE and Elmore wire)",
       {length_flag(), style_flag(), slew_flag(), drive_flag(), repeaters_flag(),
        corner_flag()}},
      {"mesh",
       "<dvopd|vproc|mpeg4|mwd|spec.soc> <tech>",
       "regular 2-D mesh NoC for an SoC spec",
       {{"rows", FlagType::Int, "r", "auto", "mesh rows"},
        {"cols", FlagType::Int, "c", "auto", "mesh columns"},
        coeffs_flag()}},
      {"export",
       "<tech>",
       "export the implemented link as a SPICE deck and/or SPEF",
       {length_flag(), style_flag(), slew_flag(), drive_flag(), repeaters_flag(),
        corner_flag(),
        {"deck", FlagType::String, "out.sp", "", "write the SPICE deck here"},
        {"spef", FlagType::String, "out.spef", "stdout", "write the SPEF here"}}},
      {"cache",
       "<stats|prune|verify|diff|invalidate> [tech]",
       "provenance-aware cache administration (docs/caching.md)",
       {{"budget-bytes", FlagType::Int, "n", "0",
         "prune: target on-disk size, entries + manifests (0 empties the cache)"}}},
      {"serve",
       "",
       "wire-protocol client: send request lines from stdin (docs/serving.md)",
       {{"socket", FlagType::String, "path", "", "connect to a pimd Unix socket"},
        {"tcp", FlagType::Int, "port", "", "connect to pimd at 127.0.0.1:<port>"},
        {"local", FlagType::Switch, "", "",
         "execute lines in-process through the same codec (no daemon)"}}},
  };
  return commands;
}

const CommandSpec* find_command(const std::string& name) {
  for (const CommandSpec& c : command_registry())
    if (c.name == name) return &c;
  return nullptr;
}

const std::vector<FlagSpec>& global_flag_specs() {
  static const std::vector<FlagSpec> flags = {
      {"log-level", FlagType::String, "debug|info|warn|error|off", "info",
       "stderr log threshold (beats PIM_LOG_LEVEL)"},
      {"profile", FlagType::String, "[out.json]", "",
       "collect metrics, write JSON (stdout if bare)"},
      {"trace", FlagType::String, "out.trace.json", "",
       "record a chrome://tracing timeline"},
      {"inject-fault", FlagType::String, "site[:prob[:seed]]", "",
       "arm deterministic fault injection (docs/robustness.md)"},
      {"threads", FlagType::Int, "N", "all cores",
       "worker threads; results are bit-identical at any N"},
      {"deadline-ms", FlagType::Int, "ms", "unlimited",
       "wall-clock budget; partial results exit 5 (beats PIM_DEADLINE_MS)"},
      {"cache", FlagType::String, "off|ro|rw", "rw",
       "result-cache mode (docs/caching.md; beats PIM_CACHE)"},
      {"cache-dir", FlagType::String, "dir", "~/.cache/pim",
       "result-cache directory (beats PIM_CACHE_DIR)"},
      {"out-dir", FlagType::String, "dir", "bench_out",
       "directory for report artifacts (beats PIM_OUT_DIR)"},
      {"ledger", FlagType::String, "file|off", "ledger.jsonl",
       "run-ledger file under --out-dir; 'off' disables (docs/observability.md)"},
      {"version", FlagType::Switch, "", "", "print version and build info, exit"},
      {"help", FlagType::Switch, "", "", "show this help and exit"},
  };
  return flags;
}

const std::vector<std::string>& global_flags() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const FlagSpec& f : global_flag_specs()) out.push_back(f.name);
    return out;
  }();
  return names;
}

void check_known_for(const Args& args, const CommandSpec& spec) {
  std::vector<std::string> known;
  for (const FlagSpec& f : spec.flags) known.push_back(f.name);
  check_known_with_globals(args, std::move(known));
}

void check_known_with_globals(const Args& args, std::vector<std::string> known) {
  known.insert(known.end(), global_flags().begin(), global_flags().end());
  args.check_known(known);
}

namespace {

std::string flag_stub(const FlagSpec& flag) {
  std::string out = "--" + flag.name;
  if (flag.type != FlagType::Switch) out += " " + flag.value_name;
  return out;
}

void render_flag_lines(std::ostringstream& os, const std::vector<FlagSpec>& flags) {
  size_t width = 0;
  for (const FlagSpec& f : flags) width = std::max(width, flag_stub(f).size());
  for (const FlagSpec& f : flags) {
    const std::string stub = flag_stub(f);
    os << "  " << stub << std::string(width - stub.size() + 2, ' ') << f.help;
    if (!f.default_text.empty()) os << " (default: " << f.default_text << ")";
    os << "\n";
  }
}

const char* kExitCodesLine =
    "exit codes: 0 ok, 2 usage, 3 runtime failure, 4 internal error, "
    "5 deadline/cancelled (partial results flushed)\n";

}  // namespace

std::string version_text() {
  std::ostringstream os;
  os << "pim " << kVersion << "\n";
  os << "  api-version " << api::kApiVersion << "\n";
  os << "  cache-format " << cache::kFormatVersion << "\n";
  os << "  compiler " << __VERSION__ << "\n";
  return os.str();
}

std::string usage_text() {
  std::ostringstream os;
  os << "usage: pim <command> [args]  (pim <command> --help for details)\n";
  for (const CommandSpec& c : command_registry()) {
    os << "  " << c.name;
    if (!c.positionals.empty()) os << " " << c.positionals;
    for (const FlagSpec& f : c.flags) os << " [" << flag_stub(f) << "]";
    os << "\n";
  }
  os << "global flags (any command):\n";
  render_flag_lines(os, global_flag_specs());
  os << kExitCodesLine;
  return os.str();
}

std::string help_text(const CommandSpec& spec) {
  std::ostringstream os;
  os << "usage: pim " << spec.name;
  if (!spec.positionals.empty()) os << " " << spec.positionals;
  if (!spec.flags.empty()) os << " [flags]";
  os << "\n  " << spec.summary << "\n";
  if (!spec.flags.empty()) {
    os << "flags:\n";
    render_flag_lines(os, spec.flags);
  }
  os << "global flags:\n";
  render_flag_lines(os, global_flag_specs());
  os << kExitCodesLine;
  return os.str();
}

void apply_global_flags(const Args& args) {
  if (args.has("log-level")) {
    LogLevel level;
    require(log_level_from_name(args.get("log-level"), level),
            "cli: --log-level must be debug|info|warn|error|off",
            ErrorCode::bad_input);
    set_log_level(level);
  }
  if (args.has("inject-fault")) {
    require(!args.get("inject-fault").empty(),
            "cli: --inject-fault needs a site[:prob[:seed]] spec",
            ErrorCode::bad_input);
    fault::configure(args.get("inject-fault"));
  }
  if (args.has("threads")) {
    const int n = args.get_int("threads", 0);
    require(n >= 1, "cli: --threads must be a positive integer",
            ErrorCode::bad_input);
    exec::set_threads(n);
  }
  if (args.has("cache")) {
    cache::Mode mode;
    require(cache::mode_from_name(args.get("cache"), mode),
            "cli: --cache must be off, ro, or rw", ErrorCode::bad_input);
    cache::set_mode(mode);
  }
  if (args.has("cache-dir")) {
    require(!args.get("cache-dir").empty(), "cli: --cache-dir needs a path",
            ErrorCode::bad_input);
    cache::set_dir(args.get("cache-dir"));
  }
  if (args.has("out-dir")) {
    require(!args.get("out-dir").empty(), "cli: --out-dir needs a path",
            ErrorCode::bad_input);
    set_out_dir(args.get("out-dir"));
  }
  if (args.has("deadline-ms")) {
    const long n = args.get_long("deadline-ms", 0);
    require(n >= 0, "cli: --deadline-ms must be >= 0 (0 = unlimited)",
            ErrorCode::bad_input);
  }
  if (args.has("profile")) obs::set_enabled(true);
  if (args.has("trace")) {
    require(!args.get("trace").empty(), "cli: --trace needs an output path",
            ErrorCode::bad_input);
    obs::set_enabled(true);
    obs::set_trace_enabled(true);
  }
}

int64_t resolved_deadline_ms(const Args& args) {
  if (args.has("deadline-ms")) return args.get_long("deadline-ms", 0);
  if (const char* env = std::getenv("PIM_DEADLINE_MS");
      env != nullptr && *env != '\0') {
    const long n = parse_long(env);
    require(n >= 0, "cli: PIM_DEADLINE_MS must be >= 0 (0 = unlimited)",
            ErrorCode::bad_input);
    return n;
  }
  return 0;
}

namespace {

// Relative report paths land under --out-dir / PIM_OUT_DIR when one was
// configured; explicit absolute paths and the bare default never move.
std::string report_path(const std::string& path) {
  if (path.empty() || path.front() == '/' || !out_dir_configured()) return path;
  return out_path(path);
}

}  // namespace

void write_observability_reports(const Args& args) {
  if (args.has("profile")) {
    const std::string path = report_path(args.get("profile"));
    if (path.empty()) {
      // Bare --profile: the metrics ARE the requested output, on stdout.
      obs::update_process_gauges();
      std::fputs(obs::metrics_to_json(obs::registry().snapshot()).c_str(), stdout);
    } else {
      obs::save_metrics_json(path);
      log_info("wrote ", path);
    }
  }
  if (args.has("trace")) {
    const std::string path = report_path(args.get("trace"));
    obs::save_trace(path);
    log_info("wrote ", path);
  }
}

int exit_code_for(const Error& error) { return api::wire::exit_code_for(error.code()); }

void append_run_ledger(const std::string& command, const Args& args,
                       int exit_code, int64_t wall_ns) {
  try {
    std::string name = args.get("ledger", "");
    if (name == "off") return;
    if (name.empty()) {
      // PIM_LEDGER=off opts a whole environment (CI stages, test
      // harnesses) out; an explicit --ledger flag beats it.
      if (const char* env = std::getenv("PIM_LEDGER");
          env != nullptr && std::string(env) == "off" && !args.has("ledger"))
        return;
      name = "ledger.jsonl";
    }
    obs::LedgerRecord record;
    record.command = command;
    for (const auto& [flag, value] : args.flags())
      record.flags.emplace_back(flag, value);
    record.positionals = args.positionals();
    record.corners = args.get("corner", args.get("corners", ""));
    record.cache_mode = cache::mode_name(cache::mode());
    record.exit_code = exit_code;
    record.threads = exec::threads();
    record.wall_ns = wall_ns;
    const std::string path = name.front() == '/' ? name : out_path(name);
    obs::append_ledger_record(path, record);
  } catch (...) {
    // The ledger is telemetry: it must never change a run's outcome.
  }
}

}  // namespace pim::cli
