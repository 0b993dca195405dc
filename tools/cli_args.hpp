// Command-line argument handling for the pim CLI: a small parser for
// positionals plus `--flag value` / `--flag=value` / `--switch` options,
// and a declarative registry of every subcommand and flag the binary
// accepts. usage() and the per-subcommand --help screens are generated
// from the registry, so the documentation cannot drift from the parser.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace pim::cli {

class Args {
 public:
  /// Parses argv[from..); flags start with "--". `--flag=value` binds
  /// directly; otherwise a flag followed by a non-flag token consumes it
  /// as its value, and a flag followed by another flag is a switch.
  Args(int argc, char** argv, int from);

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Positional at index or `fallback` when absent.
  std::string positional(size_t index, const std::string& fallback = "") const;

  bool has(const std::string& flag) const;
  std::string get(const std::string& flag, const std::string& fallback = "") const;
  double get_double(const std::string& flag, double fallback) const;
  long get_long(const std::string& flag, long fallback) const;
  /// get_long, rejecting (bad_input, naming the flag) a value that does
  /// not fit an int.
  int get_int(const std::string& flag, int fallback) const;
  /// Comma-separated ints, each entry checked as by get_int.
  std::vector<int> get_int_list(const std::string& flag) const;

  /// Throws pim::Error if any parsed flag is not in `known`.
  void check_known(const std::vector<std::string>& known) const;

  /// Every parsed flag as name -> value (switches map to ""), in name
  /// order. The run ledger records these as the resolved flag set.
  const std::map<std::string, std::string>& flags() const { return flags_; }

 private:
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> flags_;  // switch -> ""
};

// ---------------------------------------------------------------------------
// Declarative flag / command registry
// ---------------------------------------------------------------------------

/// How a flag's value is parsed (drives help rendering only; commands
/// read values through the typed Args getters).
enum class FlagType { Switch, String, Int, Double };

/// One `--flag` a subcommand (or every subcommand) accepts.
struct FlagSpec {
  std::string name;        ///< without the leading "--"
  FlagType type = FlagType::String;
  std::string value_name;  ///< e.g. "mm", "n", "out.json"; "" for switches
  std::string default_text;  ///< rendered in help; "" = no default shown
  std::string help;        ///< one-line description
};

/// One pim subcommand: its positional signature, summary, and flags.
struct CommandSpec {
  std::string name;
  std::string positionals;  ///< e.g. "<tech>" or "<spec> <tech>"
  std::string summary;
  std::vector<FlagSpec> flags;
};

/// Every subcommand the binary accepts, in help order.
const std::vector<CommandSpec>& command_registry();

/// The spec for `name`, or nullptr for an unknown command.
const CommandSpec* find_command(const std::string& name);

/// Flags valid on every subcommand (observability, cache, output dir).
const std::vector<FlagSpec>& global_flag_specs();

/// Names of the global flags (see global_flag_specs).
const std::vector<std::string>& global_flags();

/// check_known against a command's registered flags plus the globals.
void check_known_for(const Args& args, const CommandSpec& spec);

/// check_known with the global flags appended to `known`.
void check_known_with_globals(const Args& args, std::vector<std::string> known);

/// The `pim --version` text: semver, api/cache format versions, compiler.
std::string version_text();

/// The one-screen usage text, generated from the registry.
std::string usage_text();

/// The per-subcommand help screen (`pim <command> --help`).
std::string help_text(const CommandSpec& spec);

/// Applies the global flags' side effects: log threshold, fault
/// injection, thread count, metric/trace collection, cache mode and
/// directory, output directory. Call once before dispatching.
void apply_global_flags(const Args& args);

/// The wall-clock budget for this run in milliseconds: `--deadline-ms`
/// beats PIM_DEADLINE_MS; 0 (the default) means unlimited. Commands copy
/// this into their api request's `deadline_ms` field.
int64_t resolved_deadline_ms(const Args& args);

/// Writes the --profile / --trace artifacts. Call after the command ran
/// (also on failure, so partial runs still leave telemetry behind).
/// Relative report paths resolve under pim::out_dir() when --out-dir or
/// PIM_OUT_DIR configured one.
void write_observability_reports(const Args& args);

/// Maps the error taxonomy to the CLI exit-code contract, which is the
/// wire's (api::wire::exit_code_for): bad_input -> 2, internal -> 4,
/// deadline_exceeded/cancelled -> 5, everything else -> 3.
int exit_code_for(const Error& error);

/// The exit code for a run that finished with a graceful partial result
/// (result.partial == true) instead of a typed stop error.
inline constexpr int kExitPartial = 5;

/// Appends one run-ledger record (docs/observability.md) for `command`
/// to the ledger file: `--ledger <file>` names it ("" / bare uses
/// ledger.jsonl), relative names land under pim::out_dir(). `--ledger
/// off` (or PIM_LEDGER=off without the flag) suppresses the record.
/// Best-effort: never throws.
void append_run_ledger(const std::string& command, const Args& args,
                       int exit_code, int64_t wall_ns);

}  // namespace pim::cli
