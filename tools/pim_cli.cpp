// pim — command-line front end to the library.
//
// Thin by design: every subcommand parses flags via the declarative
// registry in cli_args.cpp, builds a pim::api request, runs it through
// the stable facade (src/api/pim_api.hpp), and prints the result. The
// CLI touches no internal headers, so it only breaks when the facade's
// versioned contract does. `pim --help` / `pim <command> --help` render
// the registry; see docs/cli.md for a tour.
//
// Exit codes: 0 success, 2 usage/bad input, 3 runtime failure (solver,
// convergence, I/O), 4 internal error, 5 deadline exceeded / cancelled
// (reports, traces, and the ledger record are still flushed; commands
// with a sound partial semantics print the truncated result first).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "obs/report.hpp"
#include "deadline/deadline.hpp"
#include "obs/trace.hpp"
#include "serve/transport.hpp"
#include "util/paths.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/textfile.hpp"

#include "cli_args.hpp"

namespace pim::cli {
namespace {

int usage() {
  std::fputs(usage_text().c_str(), stderr);
  return 2;
}

// A command whose api call came back with partial = true already printed
// its (truncated but valid) result; it exits 5 through the normal finish
// path so the ledger records the deadline outcome.
int partial_exit(const char* command) {
  log_warn(command, ": stopped early (deadline/cancel); result covers the "
           "completed work only");
  return kExitPartial;
}

std::string tech_arg(const Args& args, size_t index) {
  const std::string name = args.positional(index);
  require(!name.empty(), "cli: missing <tech> argument", ErrorCode::bad_input);
  return name;
}

api::LinkSpec link_arg(const Args& args) {
  api::LinkSpec link;
  link.tech = tech_arg(args, 0);
  link.length_mm = args.get_double("length", 0.0);
  require(link.length_mm > 0.0, "cli: --length <mm> is required and must be positive",
          ErrorCode::bad_input);
  link.style = args.get("style", "SS");
  link.input_slew_ps = args.get_double("slew", 100.0);
  link.drive = args.get_int("drive", 12);
  link.repeaters = args.get_int("repeaters", 0);
  link.coeffs_path = args.get("coeffs", "");
  link.corner = args.get("corner", "");
  return link;
}

void save_text(const std::string& text, const std::string& path) {
  require(!fault::should_fire(fault::kIoOpen), "cli: cannot open '" + path + "'",
          ErrorCode::io_parse);
  write_text_file(path, text, "cli");
}

int cmd_techfile(const Args& args) {
  obs::TraceSpan span("cli.techfile");
  api::TechfileRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.tech = tech_arg(args, 0);
  std::fputs(api::run_techfile(req).take().text.c_str(), stdout);
  return 0;
}

int cmd_characterize(const Args& args) {
  obs::TraceSpan span("cli.characterize");
  api::CharlibRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.tech = tech_arg(args, 0);
  if (args.has("drives")) req.drives = args.get_int_list("drives");
  req.want_fit = args.has("coeffs");
  req.corner = args.get("corner", "");
  log_info("characterizing ", req.tech, " (transistor-level simulations)...");
  const api::CharlibResult r = api::run_charlib(req).take();
  if (args.has("lib")) {
    save_text(r.liberty_text, args.get("lib"));
    log_info("wrote ", args.get("lib"));
  } else {
    std::fputs(r.liberty_text.c_str(), stdout);
  }
  if (args.has("coeffs")) {
    save_text(r.fit_text, args.get("coeffs"));
    log_info("wrote ", args.get("coeffs"));
  }
  if (r.partial) return partial_exit("characterize");
  return 0;
}

int cmd_fit(const Args& args) {
  obs::TraceSpan span("cli.fit");
  api::FitRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.tech = tech_arg(args, 0);
  req.coeffs_path = args.get("coeffs", "");
  req.corner = args.get("corner", "");
  std::fputs(api::run_fit(req).take().fit_text.c_str(), stdout);
  return 0;
}

int cmd_evaluate(const Args& args) {
  obs::TraceSpan span("cli.evaluate");
  api::LinkEvalRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.link = link_arg(args);
  req.golden = args.has("golden");
  const api::LinkEvalResult r = api::run_evaluate(req).take();
  std::printf("link: %.2f mm %s at %s, %d x INVD%d (miller %.2f)\n",
              req.link.length_mm, r.style_name.c_str(), r.tech_name.c_str(),
              r.repeaters, req.link.drive, r.miller_factor);
  std::printf("model:  delay %.1f ps | slew %.1f ps | power %.4f mW/bit | area %.1f um2\n",
              r.delay_ps, r.output_slew_ps, r.power_mw, r.area_um2);
  if (r.has_golden) {
    std::printf("golden: delay %.1f ps | slew %.1f ps (%zu nodes) | model err %+.1f %%\n",
                r.golden_delay_ps, r.golden_slew_ps,
                static_cast<size_t>(r.golden_nodes), r.model_error_pct);
  }
  return 0;
}

int cmd_buffer(const Args& args) {
  obs::TraceSpan span("cli.buffer");
  api::BufferRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.link = link_arg(args);
  req.weight = args.get_double("weight", 0.6);
  req.budget_ps = args.get_double("budget", 0.0);
  const api::BufferResult r = api::run_buffer(req).take();
  if (!r.feasible) {
    log_error("buffer: no buffering meets the constraints (", r.evaluations,
              " candidates)");
    return 1;
  }
  std::printf("best: %d x %sD%d (miller %.2f) after %ld candidates\n", r.repeaters,
              r.kind.c_str(), r.drive, r.miller_factor, r.evaluations);
  std::printf("estimate: delay %.1f ps | power %.4f mW/bit | area %.1f um2\n",
              r.delay_ps, r.power_mw, r.area_um2);
  return 0;
}

int cmd_noc(const Args& args) {
  obs::TraceSpan span("cli.noc");
  api::SynthesisRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.spec = args.positional(0);
  require(!req.spec.empty(), "cli: noc needs a spec (dvopd, vproc, or a .soc file)",
          ErrorCode::bad_input);
  req.tech = tech_arg(args, 1);
  req.model = args.get("model", "proposed");
  req.want_dot = args.has("dot");
  req.coeffs_path = args.get("coeffs", "");
  req.corners = args.get("corners", "");
  const api::SynthesisResult r = api::run_synthesis(req).take();
  std::printf("%s at %s under the %s model:\n", r.spec_name.c_str(),
              r.tech_name.c_str(), r.model_name.c_str());
  std::printf("  power: %.2f mW dynamic + %.2f mW leakage\n", r.dynamic_power_mw,
              r.leakage_power_mw);
  std::printf("  worst link delay %.0f ps (budget %.0f ps) | area %.3f mm2\n",
              r.worst_link_delay_ps, r.delay_budget_ps, r.area_mm2);
  std::printf("  %d links, %d routers, hops avg %.2f max %d, %d merges\n", r.num_links,
              r.num_routers, r.avg_hops, r.max_hops, r.merges_applied);
  if (args.has("dot")) {
    save_text(r.dot_text, args.get("dot"));
    log_info("wrote ", args.get("dot"));
  }
  if (r.partial) return partial_exit("noc");
  return 0;
}

int cmd_yield(const Args& args) {
  obs::TraceSpan span("cli.yield");
  api::YieldRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.link = link_arg(args);
  req.samples = args.get_int("samples", 1000);
  const api::YieldResult r = api::run_yield(req).take();
  std::printf("%d corners: nominal %.1f ps, mean %.1f ps, sigma %.2f ps\n",
              r.samples, r.nominal_delay_ps, r.mean_delay_ps, r.sigma_delay_ps);
  std::printf("p90 %.1f ps | p99 %.1f ps | yield at nominal %.1f %% (ci95 +/- %.1f %%)\n",
              r.p90_delay_ps, r.p99_delay_ps, 100.0 * r.yield_at_nominal,
              100.0 * r.yield_ci95);
  if (r.partial) {
    std::printf("partial=true: %d of %d requested samples completed before the stop\n",
                r.samples + r.failed_samples, r.requested_samples);
    return partial_exit("yield");
  }
  return 0;
}

int cmd_signoff(const Args& args) {
  obs::TraceSpan span("cli.signoff");
  api::CornersRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.link = link_arg(args);
  req.corners = args.get("corners", "all");
  req.target_period_ps = args.get_double("period", 0.0);
  log_info("signing off across corners (per-corner characterization)...");
  const api::CornersResult r = api::run_corners(req).take();
  std::printf("%.2f mm %s link at %s, %d repeaters, target %.1f ps:\n",
              req.link.length_mm, r.style_name.c_str(), r.tech_name.c_str(),
              r.repeaters, r.target_period_ps);
  std::printf("  %-10s %10s %10s %10s %10s\n", "corner", "delay ps", "slew ps",
              "slack ps", "noise mV");
  for (const api::CornerTimingRow& row : r.corners) {
    std::printf("  %-10s %10.1f %10.1f %10.1f %10.1f\n", row.corner.c_str(),
                row.delay_ps, row.output_slew_ps, row.slack_ps, row.noise_peak_mv);
  }
  std::printf("worst corner %s, slack %.1f ps\n", r.worst_corner.c_str(),
              r.worst_slack_ps);
  return 0;
}

int cmd_export(const Args& args) {
  obs::TraceSpan span("cli.export");
  api::ExportRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.link = link_arg(args);
  req.want_deck = args.has("deck");
  req.want_spef = args.has("spef");
  const api::ExportResult r = api::run_export(req).take();
  bool wrote = false;
  if (args.has("deck")) {
    save_text(r.deck_text, args.get("deck"));
    log_info("wrote ", args.get("deck"), " (", r.deck_nodes, " nodes)");
    wrote = true;
  }
  if (args.has("spef")) {
    save_text(r.spef_text, args.get("spef"));
    log_info("wrote ", args.get("spef"));
    wrote = true;
  }
  if (!wrote) std::fputs(r.spef_text.c_str(), stdout);
  return 0;
}

int cmd_noise(const Args& args) {
  obs::TraceSpan span("cli.noise");
  api::NoiseRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.link = link_arg(args);
  log_info("calibrating noise model against golden glitch sims...");
  const api::NoiseResult r = api::run_noise(req).take();
  std::printf("%.2f mm %s segment, INVD%d holder at %s:\n", req.link.length_mm,
              r.style_name.c_str(), req.link.drive, r.tech_name.c_str());
  std::printf("  golden glitch %.1f mV (%.1f %% of vdd), model %.1f mV (%+.1f %%)\n",
              r.golden_peak_mv, r.golden_peak_pct_vdd, r.model_peak_mv,
              r.model_error_pct);
  return 0;
}

int cmd_timer(const Args& args) {
  obs::TraceSpan span("cli.timer");
  api::TimerRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.link = link_arg(args);
  log_info("characterizing INVD", req.link.drive, " tables...");
  const api::TimerResult r = api::run_timer(req).take();
  std::printf("NLDM timer, %.2f mm x %d INVD%d at %s:\n", req.link.length_mm,
              r.repeaters, req.link.drive, r.tech_name.c_str());
  std::printf("  awe-wire delay %.1f ps (slew %.1f ps) | elmore-wire delay %.1f ps\n",
              r.awe_delay_ps, r.awe_slew_ps, r.elmore_delay_ps);
  if (r.partial) return partial_exit("timer");
  return 0;
}

int cmd_mesh(const Args& args) {
  obs::TraceSpan span("cli.mesh");
  api::SynthesisRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.spec = args.positional(0);
  require(!req.spec.empty(), "cli: mesh needs a spec (dvopd, vproc, or a .soc file)",
          ErrorCode::bad_input);
  req.tech = tech_arg(args, 1);
  req.mesh = true;
  req.rows = args.get_int("rows", 0);
  req.cols = args.get_int("cols", 0);
  req.coeffs_path = args.get("coeffs", "");
  const api::SynthesisResult r = api::run_synthesis(req).take();
  std::printf("%s mesh at %s: %d routers, %d links\n", r.spec_name.c_str(),
              r.tech_name.c_str(), r.num_routers, r.num_links);
  std::printf("  power %.2f mW dyn + %.2f mW leak | area %.3f mm2 | hops %.2f avg %d max\n",
              r.dynamic_power_mw, r.leakage_power_mw, r.area_mm2, r.avg_hops,
              r.max_hops);
  if (r.partial) return partial_exit("mesh");
  return 0;
}

int cmd_cache(const Args& args) {
  obs::TraceSpan span("cli.cache");
  const std::string action = args.positional(0);
  require(!action.empty(),
          "cli: cache needs an action (stats, prune, verify, diff, invalidate)",
          ErrorCode::bad_input);
  if (action == "diff" || action == "invalidate") {
    api::InvalidateRequest req;
    req.deadline_ms = resolved_deadline_ms(args);
    req.tech = tech_arg(args, 1);
    req.apply = action == "invalidate";
    const api::InvalidateResult r = api::run_invalidate(req).take();
    std::printf("%d manifests against %s: %d dirty, %d reusable\n", r.manifests,
                req.tech.c_str(), r.dirty_keys, r.reuse_keys);
    for (const api::InvalidateKindRow& row : r.kinds)
      std::printf("  %-12s %6d dirty %6d reuse\n", row.kind.c_str(), row.dirty,
                  row.reuse);
    if (r.applied)
      std::printf("evicted %d stale entries\n", r.evicted);
    else if (r.dirty_keys > 0)
      std::printf("(dry run; `pim cache invalidate` evicts the dirty cone)\n");
    return 0;
  }
  api::CacheAdminRequest req;
  req.deadline_ms = resolved_deadline_ms(args);
  req.action = action;
  req.budget_bytes = args.get_long("budget-bytes", 0);
  const api::CacheAdminResult r = api::run_cache_admin(req).take();
  if (action == "stats") {
    std::printf("cache at %s:\n", r.dir.c_str());
    std::printf("  %-12s %8s %14s %14s\n", "kind", "entries", "payload B",
                "manifest B");
    for (const api::CacheKindRow& row : r.kinds)
      std::printf("  %-12s %8lld %14lld %14lld\n", row.kind.c_str(),
                  static_cast<long long>(row.entries),
                  static_cast<long long>(row.payload_bytes),
                  static_cast<long long>(row.manifest_bytes));
    std::printf("total %lld bytes\n", static_cast<long long>(r.total_bytes));
  } else if (action == "prune") {
    std::printf("pruned %s to %lld bytes: removed %lld of %lld entries (%lld bytes)\n",
                r.dir.c_str(), static_cast<long long>(r.kept_bytes),
                static_cast<long long>(r.removed_entries),
                static_cast<long long>(r.scanned_entries),
                static_cast<long long>(r.removed_bytes));
  } else {  // verify (run_cache_admin rejects anything else)
    std::printf("verified %s: %lld entries, %lld manifests\n", r.dir.c_str(),
                static_cast<long long>(r.entries),
                static_cast<long long>(r.manifests));
    std::printf("  orphan manifests %lld | unmanifested entries %lld | corrupt %lld "
                "| scrubbed %lld\n",
                static_cast<long long>(r.orphan_manifests),
                static_cast<long long>(r.unmanifested_entries),
                static_cast<long long>(r.corrupt_manifests),
                static_cast<long long>(r.scrubbed));
    if (r.scrubbed > 0) return 1;
  }
  return 0;
}

// The worst exit code any response in the session carried (the daemon
// embeds exit_code in every error envelope — one contract across both
// surfaces, docs/api.md). Unparseable responses, and an exit_code that is
// not an integer in [1, 255], count as internal.
void fold_response_exit(const std::string& response, int& exit_code) {
  try {
    const obs::JsonValue v = obs::parse_json(response);
    const obs::JsonValue* ok = v.find("ok");
    if (ok == nullptr || ok->kind != obs::JsonValue::Kind::Bool || ok->boolean)
      return;
    if (const obs::JsonValue* error = v.find("error");
        error != nullptr && error->kind == obs::JsonValue::Kind::Object) {
      if (const obs::JsonValue* ec = error->find("exit_code"); ec != nullptr) {
        const double n = ec->number;
        const bool valid = ec->kind == obs::JsonValue::Kind::Number && n >= 1 &&
                           n <= 255 && n == std::floor(n);
        exit_code = std::max(exit_code, valid ? static_cast<int>(n) : 4);
        return;
      }
    }
    exit_code = std::max(exit_code, 3);
  } catch (...) {
    exit_code = std::max(exit_code, 4);
  }
}

// `pim serve` — the wire-protocol client (docs/serving.md). Reads one
// request line per stdin line, obtains one response line (from a daemon
// over --socket/--tcp, or in-process with --local through the exact
// function the daemon workers run), prints it, and exits with the worst
// exit_code any response carried.
int cmd_serve(const Args& args) {
  obs::TraceSpan span("cli.serve");
  const bool local = args.has("local");
  const std::string socket_path = args.get("socket", "");
  const int tcp_port = args.get_int("tcp", -1);
  require(local || !socket_path.empty() || tcp_port >= 0,
          "serve: need --local, --socket <path>, or --tcp <port>",
          ErrorCode::bad_input);
  require(!local || (socket_path.empty() && tcp_port < 0),
          "serve: --local excludes --socket/--tcp", ErrorCode::bad_input);
  int exit_code = 0;
  std::string line;
  if (local) {
    while (std::getline(std::cin, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string response = api::wire::execute_line(line);
      std::fputs(response.c_str(), stdout);
      std::fputc('\n', stdout);
      fold_response_exit(response, exit_code);
    }
    return exit_code;
  }
  const int fd = socket_path.empty() ? serve::connect_tcp(tcp_port)
                                      : serve::connect_unix(socket_path);
  serve::LineReader reader(fd);
  std::string response;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    line += '\n';
    if (!serve::send_all(fd, line)) {
      ::close(fd);
      fail("serve: connection lost while sending", ErrorCode::io_parse);
    }
    // Lock-step: one response line per request line, so a large session
    // cannot deadlock on full socket buffers in both directions.
    if (reader.next(response) != serve::LineReader::Status::line) {
      ::close(fd);
      fail("serve: connection closed before a response arrived", ErrorCode::io_parse);
    }
    std::fputs(response.c_str(), stdout);
    std::fputc('\n', stdout);
    fold_response_exit(response, exit_code);
  }
  ::close(fd);
  return exit_code;
}

int run_command(const CommandSpec& spec, const Args& args) {
  if (spec.name == "techfile") return cmd_techfile(args);
  if (spec.name == "characterize") return cmd_characterize(args);
  if (spec.name == "fit") return cmd_fit(args);
  if (spec.name == "evaluate") return cmd_evaluate(args);
  if (spec.name == "buffer") return cmd_buffer(args);
  if (spec.name == "noc") return cmd_noc(args);
  if (spec.name == "yield") return cmd_yield(args);
  if (spec.name == "signoff") return cmd_signoff(args);
  if (spec.name == "noise") return cmd_noise(args);
  if (spec.name == "timer") return cmd_timer(args);
  if (spec.name == "mesh") return cmd_mesh(args);
  if (spec.name == "export") return cmd_export(args);
  if (spec.name == "cache") return cmd_cache(args);
  if (spec.name == "serve") return cmd_serve(args);
  fail("cli: command '" + spec.name + "' is registered but not dispatched");
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "help") {
    std::fputs(usage_text().c_str(), stdout);
    return 0;
  }
  if (command == "--version" || command == "version") {
    std::fputs(version_text().c_str(), stdout);
    return 0;
  }
  const CommandSpec* spec = find_command(command);
  if (spec == nullptr) {
    log_error("unknown command '", command, "'");
    return usage();
  }
  const Args args(argc, argv, 2);
  if (args.has("help")) {
    std::fputs(help_text(*spec).c_str(), stdout);
    return 0;
  }
  if (args.has("version")) {
    std::fputs(version_text().c_str(), stdout);
    return 0;
  }
  // Reports (--profile/--trace) and the run ledger flush on EVERY exit
  // path — flag errors included — so an aborted run still leaves its
  // metrics, trace, and a ledger record carrying its exit code. The
  // output directory applies before any flag validation can throw, so
  // even exit-2 artifacts land where the user pointed them.
  if (!args.get("out-dir").empty()) pim::set_out_dir(args.get("out-dir"));
  const int64_t start_ns = obs::now_ns();
  const auto finish = [&](int exit_code) {
    write_observability_reports(args);
    append_run_ledger(command, args, exit_code, obs::now_ns() - start_ns);
  };
  try {
    check_known_for(args, *spec);
    fault::configure_from_env();  // PIM_FAULT; --inject-fault below beats it
    apply_global_flags(args);
    const int rc = run_command(*spec, args);
    finish(rc);
    return rc;
  } catch (const pim::Error& e) {
    try {
      finish(exit_code_for(e));
    } catch (const pim::Error& flush) {
      // Flushing must not mask the original failure.
      log_error("while writing reports: ", flush.what());
    }
    throw;
  } catch (...) {
    try {
      finish(4);
    } catch (const pim::Error& flush) {
      log_error("while writing reports: ", flush.what());
    }
    throw;
  }
}

}  // namespace
}  // namespace pim::cli

int main(int argc, char** argv) {
  // Default to Info chatter for interactive use, unless PIM_LOG_LEVEL or
  // --log-level (applied later) says otherwise.
  if (!pim::log_level_env_override()) pim::set_log_level(pim::LogLevel::Info);
  // SIGINT/SIGTERM trip the cooperative cancel token: the run stops at
  // the next item boundary and exits through the normal finish path
  // (reports + ledger flushed, exit 5). A second signal kills outright.
  pim::deadline::install_signal_handlers();
  // Exit codes: 2 = the caller passed bad arguments (usage), 3 = the run
  // itself failed (solver, convergence, file I/O), 4 = a bug (internal
  // invariant or an exception that is not a pim::Error).
  try {
    return pim::cli::dispatch(argc, argv);
  } catch (const pim::Error& e) {
    pim::log_error(e.what());
    return pim::cli::exit_code_for(e);
  } catch (const std::exception& e) {
    pim::log_error("internal error: ", e.what());
    return 4;
  } catch (...) {
    pim::log_error("internal error: unknown exception");
    return 4;
  }
}
