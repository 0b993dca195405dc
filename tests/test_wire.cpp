// The wire codec contract (src/api/wire.hpp): one canonical JSON shape
// per facade struct, strict decoding, version gating before dispatch,
// the shared error envelope, and run_batch's per-item semantics.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "api/pim_api.hpp"
#include "api/wire.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "deadline/deadline.hpp"
#include "obs/report.hpp"
#include "sta/calibrated.hpp"
#include "util/alloc_counter.hpp"
#include "util/error.hpp"

#include "synthetic_fit.hpp"

namespace pim::api {
namespace {

using wire::from_json;
using wire::to_json;

// Round-trip helper: serialize, parse back, serialize again. Any field
// the bind() pair drops or renames breaks the byte equality.
template <typename T>
std::string reserialized(const T& value) {
  const T back = from_json<T>(to_json(value), "test");
  return to_json(back);
}

template <typename T>
void expect_roundtrip(const T& value) {
  EXPECT_EQ(to_json(value), reserialized(value));
}

// One default-constructed value of every alternative of variant V, in
// index order.
template <typename V, size_t... I>
std::vector<V> every_alternative(std::index_sequence<I...>) {
  return {V(std::in_place_index<I>)...};
}
template <typename V>
std::vector<V> every_alternative() {
  return every_alternative<V>(std::make_index_sequence<std::variant_size_v<V>>{});
}

// The response to a line that must fail at execute time.
obs::JsonValue error_of(const std::string& line) {
  const obs::JsonValue v = obs::parse_json(wire::execute_line(line));
  EXPECT_FALSE(v.find("ok")->boolean) << line;
  return v;
}

LinkSpec sample_link() {
  LinkSpec link;
  link.tech = "65nm";
  link.length_mm = 3.25;
  link.style = "DP";
  link.input_slew_ps = 85.5;
  link.drive = 8;
  link.repeaters = 4;
  link.coeffs_path = "/tmp/coeffs.pimfit";
  link.corner = "ss_vlow_hot";
  return link;
}

TEST(WireCodec, LinkSpecRoundTripsFieldByField) {
  const LinkSpec link = sample_link();
  const LinkSpec back = from_json<LinkSpec>(to_json(link), "test");
  EXPECT_EQ(back.tech, link.tech);
  EXPECT_EQ(back.length_mm, link.length_mm);
  EXPECT_EQ(back.style, link.style);
  EXPECT_EQ(back.input_slew_ps, link.input_slew_ps);
  EXPECT_EQ(back.drive, link.drive);
  EXPECT_EQ(back.repeaters, link.repeaters);
  EXPECT_EQ(back.coeffs_path, link.coeffs_path);
  EXPECT_EQ(back.corner, link.corner);
}

TEST(WireCodec, EveryRequestStructRoundTrips) {
  TechfileRequest techfile;
  techfile.tech = "45nm";
  techfile.deadline_ms = 250;
  expect_roundtrip(techfile);

  CharlibRequest charlib;
  charlib.tech = "65nm";
  charlib.drives = {2, 8, 32};
  charlib.want_fit = true;
  charlib.corner = "ff_vhigh_cold";
  expect_roundtrip(charlib);

  FitRequest fit;
  fit.tech = "32nm";
  fit.coeffs_path = "x.pimfit";
  fit.corner = "nominal";
  expect_roundtrip(fit);

  LinkEvalRequest evaluate;
  evaluate.link = sample_link();
  evaluate.golden = true;
  expect_roundtrip(evaluate);

  BufferRequest buffer;
  buffer.link = sample_link();
  buffer.weight = 0.75;
  buffer.budget_ps = 320.0;
  expect_roundtrip(buffer);

  YieldRequest yield;
  yield.link = sample_link();
  yield.samples = 2500;
  yield.seed = 42;
  expect_roundtrip(yield);

  NoiseRequest noise;
  noise.link = sample_link();
  expect_roundtrip(noise);

  TimerRequest timer;
  timer.link = sample_link();
  expect_roundtrip(timer);

  CornersRequest corners;
  corners.link = sample_link();
  corners.corners = "nominal,ss_vlow_hot";
  corners.target_period_ps = 444.0;
  expect_roundtrip(corners);

  ExportRequest exp;
  exp.link = sample_link();
  exp.want_deck = true;
  exp.want_spef = true;
  expect_roundtrip(exp);

  SynthesisRequest synthesis;
  synthesis.spec = "dvopd";
  synthesis.tech = "65nm";
  synthesis.model = "pamunuwa";
  synthesis.mesh = true;
  synthesis.rows = 3;
  synthesis.cols = 4;
  synthesis.want_dot = true;
  synthesis.coeffs_path = "c.pimfit";
  synthesis.corners = "all";
  expect_roundtrip(synthesis);

  InvalidateRequest invalidate;
  invalidate.tech = "65nm.tech";
  invalidate.apply = true;
  expect_roundtrip(invalidate);

  CacheAdminRequest cache;
  cache.action = "prune";
  cache.budget_bytes = 1 << 20;
  expect_roundtrip(cache);
}

TEST(WireCodec, EveryResultStructRoundTrips) {
  TechfileResult techfile;
  techfile.text = "technology \"x\" {\n}\n";
  expect_roundtrip(techfile);

  CharlibResult charlib;
  charlib.liberty_text = "library(x) {}";
  charlib.fit_text = "fit v1";
  charlib.partial = true;
  expect_roundtrip(charlib);

  FitResult fit;
  fit.fit_text = "coeffs";
  expect_roundtrip(fit);

  LinkEvalResult evaluate;
  evaluate.tech_name = "65nm";
  evaluate.style_name = "SS";
  evaluate.repeaters = 3;
  evaluate.miller_factor = 1.51;
  evaluate.delay_ps = 231.75233747701827;  // shortest-round-trip doubles
  evaluate.output_slew_ps = 204.9;
  evaluate.power_mw = 0.1447;
  evaluate.area_um2 = 6.94;
  evaluate.has_golden = true;
  evaluate.golden_delay_ps = 229.9;
  evaluate.golden_slew_ps = 200.1;
  evaluate.golden_nodes = 1234;
  evaluate.model_error_pct = 0.8;
  expect_roundtrip(evaluate);

  BufferResult buffer;
  buffer.feasible = true;
  buffer.kind = "INV";
  buffer.drive = 16;
  buffer.repeaters = 5;
  buffer.miller_factor = 1.4;
  buffer.evaluations = 960;
  buffer.delay_ps = 301.0;
  buffer.power_mw = 0.2;
  buffer.area_um2 = 12.5;
  expect_roundtrip(buffer);

  YieldResult yield;
  yield.samples = 900;
  yield.failed_samples = 100;
  yield.requested_samples = 1000;
  yield.nominal_delay_ps = 250.0;
  yield.mean_delay_ps = 260.5;
  yield.sigma_delay_ps = 9.25;
  yield.p90_delay_ps = 272.0;
  yield.p99_delay_ps = 281.0;
  yield.yield_at_nominal = 0.31;
  yield.yield_ci95 = 0.028;
  yield.partial = true;
  expect_roundtrip(yield);

  NoiseResult noise;
  noise.tech_name = "65nm";
  noise.style_name = "SS";
  noise.golden_peak_mv = 101.0;
  noise.golden_peak_pct_vdd = 10.1;
  noise.model_peak_mv = 99.0;
  noise.model_error_pct = -2.0;
  expect_roundtrip(noise);

  TimerResult timer;
  timer.tech_name = "65nm";
  timer.repeaters = 2;
  timer.awe_delay_ps = 240.0;
  timer.awe_slew_ps = 210.0;
  timer.elmore_delay_ps = 265.0;
  timer.partial = false;
  expect_roundtrip(timer);

  CornersResult corners;
  corners.tech_name = "65nm";
  corners.style_name = "DP";
  corners.repeaters = 2;
  corners.target_period_ps = 444.0;
  corners.corners = {{"nominal", 240.0, 210.0, 204.0, 55.0},
                     {"ss_vlow_hot", 310.0, 280.0, 134.0, 66.0}};
  corners.worst_corner = "ss_vlow_hot";
  corners.worst_slack_ps = 134.0;
  const CornersResult corners_back =
      from_json<CornersResult>(to_json(corners), "test");
  ASSERT_EQ(corners_back.corners.size(), 2u);
  EXPECT_EQ(corners_back.corners[1].corner, "ss_vlow_hot");
  EXPECT_EQ(corners_back.corners[1].noise_peak_mv, 66.0);
  expect_roundtrip(corners);

  ExportResult exp;
  exp.deck_text = "* deck\n.end\n";
  exp.deck_nodes = 321;
  exp.spef_text = "*SPEF";
  expect_roundtrip(exp);

  SynthesisResult synthesis;
  synthesis.spec_name = "dvopd";
  synthesis.tech_name = "65nm";
  synthesis.model_name = "proposed";
  synthesis.dynamic_power_mw = 12.5;
  synthesis.leakage_power_mw = 2.5;
  synthesis.worst_link_delay_ps = 390.0;
  synthesis.delay_budget_ps = 444.0;
  synthesis.area_mm2 = 0.55;
  synthesis.num_links = 18;
  synthesis.num_routers = 9;
  synthesis.avg_hops = 1.8;
  synthesis.max_hops = 3;
  synthesis.merges_applied = 2;
  synthesis.partial = true;
  synthesis.dot_text = "digraph {}";
  expect_roundtrip(synthesis);

  InvalidateResult invalidate;
  invalidate.manifests = 40;
  invalidate.dirty_keys = 7;
  invalidate.reuse_keys = 33;
  invalidate.evicted = 7;
  invalidate.applied = true;
  invalidate.kinds = {{"charlib", 3, 10}, {"fit", 4, 23}};
  expect_roundtrip(invalidate);

  CacheAdminResult cache;
  cache.action = "stats";
  cache.dir = "/tmp/cache";
  cache.kinds = {{"charlib", 4, 1000, 200}};
  cache.total_bytes = 1200;
  cache.scanned_entries = 4;
  cache.removed_entries = 1;
  cache.removed_bytes = 100;
  cache.kept_bytes = 1100;
  cache.entries = 4;
  cache.manifests = 4;
  cache.orphan_manifests = 0;
  cache.unmanifested_entries = 0;
  cache.corrupt_manifests = 0;
  cache.scrubbed = 0;
  expect_roundtrip(cache);
}

TEST(WireCodec, AbsentFieldsKeepStructDefaults) {
  const LinkEvalRequest req =
      from_json<LinkEvalRequest>("{\"link\":{\"tech\":\"65nm\"}}", "test");
  EXPECT_EQ(req.api_version, kApiVersion);
  EXPECT_EQ(req.deadline_ms, 0);
  EXPECT_FALSE(req.golden);
  EXPECT_EQ(req.link.tech, "65nm");
  EXPECT_EQ(req.link.style, "SS");        // LinkSpec defaults survive too
  EXPECT_EQ(req.link.input_slew_ps, 100.0);
  EXPECT_EQ(req.link.drive, 12);
}

TEST(WireCodec, UnknownFieldIsRejectedAsBadInput) {
  try {
    from_json<TechfileRequest>("{\"tech\":\"65nm\",\"tch\":\"oops\"}", "test");
    FAIL() << "unknown field accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
    EXPECT_NE(std::string(e.what()).find("tch"), std::string::npos);
  }
}

TEST(WireCodec, DuplicateFieldIsRejectedAsBadInput) {
  EXPECT_THROW(
      from_json<TechfileRequest>("{\"tech\":\"a\",\"tech\":\"b\"}", "test"),
      Error);
}

TEST(WireCodec, TypeMismatchIsRejectedAsBadInput) {
  try {
    from_json<TechfileRequest>("{\"tech\":12}", "test");
    FAIL() << "type mismatch accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
  }
  // Integer fields reject fractional numbers instead of truncating.
  EXPECT_THROW(from_json<YieldRequest>(
                   "{\"link\":{\"tech\":\"x\"},\"samples\":2.5}", "test"),
               Error);
}

TEST(WireEnvelope, RequestLineRoundTripsWithIdentity) {
  LinkEvalRequest req;
  req.link = sample_link();
  const std::string line = wire::write_request_line(7, AnyRequest(req));
  const wire::RequestLine parsed = wire::parse_request_line(line);
  EXPECT_TRUE(parsed.has_id);
  EXPECT_EQ(parsed.id, 7);
  EXPECT_EQ(parsed.op, "evaluate");
  EXPECT_FALSE(parsed.is_batch);
  // Re-serializing the parsed request reproduces the canonical line.
  EXPECT_EQ(wire::write_request_line(parsed.id, parsed.request), line);
}

TEST(WireEnvelope, BatchLineRoundTrips) {
  BatchRequest batch;
  batch.deadline_ms = 500;
  TechfileRequest t;
  t.tech = "45nm";
  batch.items.emplace_back(t);
  LinkEvalRequest e;
  e.link = sample_link();
  batch.items.emplace_back(e);
  const std::string line = wire::write_request_line(9, batch);
  const wire::RequestLine parsed = wire::parse_request_line(line);
  EXPECT_TRUE(parsed.is_batch);
  EXPECT_EQ(parsed.op, wire::kBatchOp);
  EXPECT_EQ(parsed.batch.deadline_ms, 500);
  ASSERT_EQ(parsed.batch.items.size(), 2u);
  EXPECT_EQ(wire::op_of(parsed.batch.items[0]), "techfile");
  EXPECT_EQ(wire::op_of(parsed.batch.items[1]), "evaluate");
  EXPECT_EQ(wire::write_request_line(9, parsed.batch), line);
}

TEST(WireEnvelope, UnknownOpListsTheValidOnes) {
  try {
    wire::parse_request_line("{\"op\":\"frobnicate\"}");
    FAIL() << "unknown op accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
    EXPECT_NE(std::string(e.what()).find("evaluate"), std::string::npos);
  }
}

TEST(WireEnvelope, OpTableIsCompleteInEveryDirection) {
  std::string unknown_op_error;
  try {
    wire::parse_request_line("{\"op\":\"frobnicate\"}");
  } catch (const Error& e) {
    unknown_op_error = e.what();
  }
  const std::vector<AnyRequest> requests = every_alternative<AnyRequest>();
  const std::vector<AnyResult> results = every_alternative<AnyResult>();
  ASSERT_EQ(requests.size(), results.size());
  std::set<std::string> ops;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::string op = wire::op_of(requests[i]);
    ops.insert(op);
    const wire::RequestLine parsed =
        wire::parse_request_line(wire::write_request_line(1, requests[i]));
    EXPECT_EQ(parsed.request.index(), i) << op;
    EXPECT_EQ(parsed.op, op);
    EXPECT_NE(unknown_op_error.find(" " + op + ","), std::string::npos)
        << op << " missing from: " << unknown_op_error;
  }
  EXPECT_EQ(ops.size(), requests.size()) << "two rows share a wire op name";
}

TEST(WireEnvelope, NestedBatchIsRejected) {
  EXPECT_THROW(wire::parse_request_line(
                   "{\"op\":\"batch\",\"items\":[{\"op\":\"batch\",\"items\":[]}]}"),
               Error);
}

TEST(WireEnvelope, ApiVersionIsValidatedBeforeDispatch) {
  // An unknown op WITH a bad version still reports the version problem
  // at parse time for known ops; dispatch never runs (the tech does not
  // exist, so dispatch would fail differently).
  try {
    wire::parse_request_line(
        "{\"op\":\"techfile\",\"api_version\":999,\"tech\":\"no-such-tech\"}");
    FAIL() << "future api_version accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
    EXPECT_NE(std::string(e.what()).find("api_version"), std::string::npos);
  }
}

TEST(WireErrors, ErrorEnvelopeCarriesCodeExitCodeAndContext) {
  Error error("something broke", ErrorCode::singular_matrix);
  const std::string json =
      wire::error_to_json(Error(error).with_context("while testing"));
  const obs::JsonValue v = obs::parse_json(json);
  EXPECT_EQ(v.find("code")->text, "singular_matrix");
  EXPECT_EQ(v.find("exit_code")->number, 3.0);
  EXPECT_NE(v.find("message")->text.find("something broke"), std::string::npos);
  ASSERT_EQ(v.find("context")->items.size(), 1u);
  EXPECT_EQ(v.find("context")->items[0].text, "while testing");
}

// Every boundary check's exact response for one bad line: the message,
// the code and the context, byte for byte. The checks build their text
// only when they fail, so these pins are what keeps that text unchanged.
TEST(WireErrors, CheckMessagesArePinned) {
  const std::pair<std::string, std::string> cases[] = {
      {"{\"op\":\"evaluate\",\"id\":1 \"link\":{}}",
       "{\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire: malformed JSON request line: json: expected ',' at offset 24\",\"context\":[]}}"},
      {"{\"op\":\"evaluate\",\"id\":2,\"link\" {}}",
       "{\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire: malformed JSON request line: json: expected ':' at offset 31\",\"context\":[]}}"},
      {"{\"op\":\"techfile\",\"id\":3,\"tech\":nul}",
       "{\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire: malformed JSON request line: json: bad literal at offset 31\",\"context\":[]}}"},
      {"{\"op\":\"techfile\",\"id\":4} x",
       "{\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire: malformed JSON request line: json: trailing content at offset 25\",\"context\":[]}}"},
      {"{\"op\":\"techfile\",\"id\":5,\"tech\":\"65nm\",\"x\":1}",
       "{\"id\":5,\"op\":\"techfile\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.techfile: unknown field 'x'\",\"context\":[]}}"},
      {"{\"op\":\"techfile\",\"id\":6,\"tech\":7}",
       "{\"id\":6,\"op\":\"techfile\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.techfile: field 'tech' must be a string\",\"context\":[]}}"},
      {"{\"op\":\"evaluate\",\"id\":7,\"link\":{\"tech\":\"65nm\",\"length_mm\":0}}",
       "{\"id\":7,\"op\":\"evaluate\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_evaluate: link.length_mm must be positive\",\"context\":[\"in pim::api::run_evaluate\"]}}"},
      {"{\"op\":\"evaluate\",\"id\":8,\"link\":{\"tech\":\"65nm\",\"length_mm\":3,\"drive\":0}}",
       "{\"id\":8,\"op\":\"evaluate\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_evaluate: link.drive must be >= 1\",\"context\":[\"in pim::api::run_evaluate\"]}}"},
      {"{\"op\":\"buffer\",\"id\":9,\"link\":{\"tech\":\"65nm\",\"length_mm\":3},\"weight\":7}",
       "{\"id\":9,\"op\":\"buffer\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_buffer: weight must be in [0, 1]\",\"context\":[\"in pim::api::run_buffer\"]}}"},
      {"{\"op\":\"techfile\",\"id\":10}",
       "{\"id\":10,\"op\":\"techfile\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_techfile: tech is required\",\"context\":[\"in pim::api::run_techfile\"]}}"},
      {"{\"op\":\"evaluate\",\"id\":11,\"link\":3}",
       "{\"id\":11,\"op\":\"evaluate\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.evaluate.link: expected a JSON object\",\"context\":[]}}"},
      {"{\"op\":\"evaluate\",\"id\":12,\"link\":{\"tech\":\"65nm\",\"drive\":\"x\"}}",
       "{\"id\":12,\"op\":\"evaluate\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.evaluate.link: field 'drive' must be an integer\",\"context\":[]}}"},
      {"{\"op\":\"evaluate\",\"id\":13,\"link\":{\"tech\":\"65nm\",\"drive\":1.5}}",
       "{\"id\":13,\"op\":\"evaluate\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.evaluate.link: field 'drive' must be an integer\",\"context\":[]}}"},
      {"{\"op\":\"evaluate\",\"id\":14,\"link\":{\"tech\":\"65nm\",\"repeaters\":1e40}}",
       "{\"id\":14,\"op\":\"evaluate\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.evaluate.link: field 'repeaters' is out of range\",\"context\":[]}}"},
      {"{\"op\":\"techfile\",\"id\":15,\"api_version\":2,\"tech\":\"65nm\"}",
       "{\"id\":15,\"op\":\"techfile\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.techfile: request api_version 2 does not match pim::api::kApiVersion " + std::to_string(kApiVersion) +
           "\",\"context\":[]}}"},
      {"{\"op\":\"yield\",\"id\":16,\"link\":{\"tech\":\"65nm\",\"length_mm\":3},\"samples\":0}",
       "{\"id\":16,\"op\":\"yield\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_yield: samples must be at least 1\",\"context\":[\"in pim::api::run_yield\"]}}"},
      {"{\"op\":\"charlib\",\"id\":17,\"tech\":\"65nm\",\"drives\":[0]}",
       "{\"id\":17,\"op\":\"charlib\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_charlib: every drive must be >= 1\",\"context\":[\"in pim::api::run_charlib\"]}}"},
      {"{\"op\":\"synthesis\",\"id\":18,\"tech\":\"65nm\"}",
       "{\"id\":18,\"op\":\"synthesis\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_synthesis: spec is required (dvopd, vproc, mpeg4, mwd, or a .soc file)\",\"context\":[\"in pim::api::run_synthesis\"]}}"},
      {"{\"op\":\"synthesis\",\"id\":19,\"spec\":\"dvopd\",\"tech\":\"65nm\",\"model\":\"bakoglu\",\"corners\":\"all\"}",
       "{\"id\":19,\"op\":\"synthesis\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_synthesis: --corners requires the proposed model (baselines carry no per-corner calibration)\",\"context\":[\"in pim::api::run_synthesis\"]}}"},
      {"{\"op\":\"synthesis\",\"id\":20,\"spec\":\"dvopd\",\"tech\":\"65nm\",\"model\":\"bakoglu\",\"rows\":2}",
       "{\"id\":20,\"op\":\"synthesis\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_synthesis: rows/cols only apply to mesh construction\",\"context\":[\"in pim::api::run_synthesis\"]}}"},
      {"{\"op\":\"cache\",\"id\":21,\"action\":\"prune\",\"budget_bytes\":-1}",
       "{\"id\":21,\"op\":\"cache\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_cache_admin: prune budget_bytes must be non-negative\",\"context\":[\"in pim::api::run_cache_admin\"]}}"},
      {"{\"op\":\"batch\",\"id\":22,\"items\":3}",
       "{\"id\":22,\"op\":\"batch\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.batch: field 'items' must be an array of request envelopes\",\"context\":[]}}"},
      {"{\"op\":\"batch\",\"id\":23,\"items\":[3]}",
       "{\"id\":23,\"op\":\"batch\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.batch.items[0]: expected a JSON object\",\"context\":[]}}"},
      {"{\"op\":\"batch\",\"id\":24,\"items\":[{}]}",
       "{\"id\":24,\"op\":\"batch\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.batch.items[0]: field 'op' is required\",\"context\":[]}}"},
      {"{\"op\":\"batch\",\"id\":25,\"items\":[{\"op\":\"batch\"}]}",
       "{\"id\":25,\"op\":\"batch\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.batch.items[0]: batches cannot nest batches\",\"context\":[]}}"},
      {"{\"op\":\"batch\",\"id\":26,\"api_version\":2,\"items\":[]}",
       "{\"id\":26,\"op\":\"batch\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.batch: request api_version 2 does not match pim::api::kApiVersion " + std::to_string(kApiVersion) +
           "\",\"context\":[]}}"},
      {"{\"op\":\"frob\",\"id\":27}",
       "{\"id\":27,\"op\":\"frob\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.frob: unknown op 'frob' (expected techfile, charlib, fit, evaluate, buffer, yield, noise, timer, corners, export, synthesis, invalidate, cache, or batch)\",\"context\":[]}}"},
      {"{\"op\":\"evaluate\",\"id\":28,\"link\":{\"tech\":\"65nm\",\"length_mm\":3},\"golden\":1}",
       "{\"id\":28,\"op\":\"evaluate\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.evaluate: field 'golden' must be a boolean\",\"context\":[]}}"},
      {"{\"op\":\"evaluate\",\"id\":29,\"link\":{\"tech\":\"65nm\",\"length_mm\":3,\"coeffs_path\":[1]}}",
       "{\"id\":29,\"op\":\"evaluate\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.evaluate.link: field 'coeffs_path' must be a string\",\"context\":[]}}"},
      {"{\"op\":\"evaluate\",\"id\":30,\"link\":{\"tech\":\"65nm\",\"length_mm\":3},\"deadline_ms\":1.5}",
       "{\"id\":30,\"op\":\"evaluate\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire.evaluate: field 'deadline_ms' must be an integer\",\"context\":[]}}"},
      {"{\"op\":\"techfile\",\"id\":31,\"tech\":\"65nm\"} [",
       "{\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire: malformed JSON request line: json: trailing content at offset 40\",\"context\":[]}}"},
      {"{\"op\":\"techfile\",\"id\":32,\"tech\":-}",
       "{\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"wire: malformed JSON request line: json: bad number '-'\",\"context\":[]}}"},
      {"{\"op\":\"batch\",\"id\":33,\"items\":[{\"op\":\"evaluate\",\"link\":{\"tech\":\"65nm\",\"length_mm\":0}},{\"op\":\"techfile\"}]}",
       "{\"id\":33,\"op\":\"batch\",\"ok\":true,\"result\":{\"failed\":2,\"partial_items\":0,\"partial\":false,\"items\":[{\"op\":\"evaluate\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_evaluate: link.length_mm must be positive\",\"context\":[\"in pim::api::run_evaluate\"]}},{\"op\":\"techfile\",\"ok\":false,\"error\":{\"code\":\"bad_input\",\"exit_code\":2,\"message\":\"run_techfile: tech is required\",\"context\":[\"in pim::api::run_techfile\"]}}]}}"},
  };
  for (const auto& [line, response] : cases) EXPECT_EQ(wire::execute_line(line), response);
}

TEST(WireErrors, DecodeMessagesArePinned) {
  const std::pair<std::function<void()>, std::string> cases[] = {
      {[] { from_json<LinkSpec>("[]", "test"); }, "test: expected a JSON object"},
      {[] { from_json<LinkSpec>("{\"tech\":1}", "test"); },
       "test: field 'tech' must be a string"},
      {[] { from_json<LinkSpec>("{\"drive\":true}", "test"); },
       "test: field 'drive' must be an integer"},
      {[] { from_json<LinkSpec>("{\"drive\":2.5}", "test"); },
       "test: field 'drive' must be an integer"},
      {[] { from_json<LinkSpec>("{\"drive\":1e30}", "test"); },
       "test: field 'drive' is out of range"},
      {[] { from_json<LinkSpec>("{\"tech\":\"65nm\",\"x\":1}", "test"); },
       "test: unknown field 'x'"},
      {[] { check_version(kApiVersion + 1, "test"); },
       "test: request api_version " + std::to_string(kApiVersion + 1) +
           " does not match pim::api::kApiVersion " + std::to_string(kApiVersion)},
  };
  for (const auto& [call, message] : cases) {
    try {
      call();
      ADD_FAILURE() << message << ": no error";
    } catch (const Error& e) {
      EXPECT_EQ(e.message(), message);
      EXPECT_EQ(e.code(), ErrorCode::bad_input) << message;
    }
  }
}

TEST(WireErrors, ExitCodeContractMatchesTheCli) {
  EXPECT_EQ(wire::exit_code_for(ErrorCode::bad_input), 2);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::internal), 4);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::deadline_exceeded), 5);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::cancelled), 5);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::io_parse), 3);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::overloaded), 3);
  EXPECT_EQ(wire::exit_code_for(ErrorCode::singular_matrix), 3);
}

TEST(WireExecute, MalformedLineBecomesTypedErrorResponse) {
  const std::string response = wire::execute_line("this is not json");
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  EXPECT_EQ(v.find("error")->find("exit_code")->number, 2.0);
}

TEST(WireExecute, DeeplyNestedLineIsBadInputNamingTheDepth) {
  // The reader recurses once per level, so without a cap 200,000 '['
  // would overflow the stack instead of failing typed.
  const std::string response = wire::execute_line(std::string(200000, '['));
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  EXPECT_NE(v.find("error")->find("message")->text.find("deeper than 64"),
            std::string::npos)
      << response;

  // The cap is 64 levels of objects or arrays, counted together.
  const auto nested = [](int depth) {
    std::string line;
    for (int i = 0; i < depth; ++i) line += i % 2 ? "[" : "{\"k\":";
    line += "0";
    for (int i = depth; i-- > 0;) line += i % 2 ? "]" : "}";
    return line;
  };
  EXPECT_NO_THROW(obs::parse_json(nested(64)));
  try {
    obs::parse_json(nested(65));
    FAIL() << "expected bad_input";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
  }
}

TEST(WireExecute, ErrorResponseEchoesTheRequestId) {
  const std::string response =
      wire::execute_line("{\"op\":\"techfile\",\"id\":31,\"tech\":\"no-such\"}");
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_EQ(v.find("id")->number, 31.0);
  EXPECT_EQ(v.find("op")->text, "techfile");
  EXPECT_FALSE(v.find("ok")->boolean);
}

TEST(WireExecute, OutOfRangeIdIsBadInputAndNotEchoed) {
  const obs::JsonValue v =
      error_of("{\"op\":\"techfile\",\"id\":1e300,\"tech\":\"no-such\"}");
  EXPECT_EQ(v.find("id"), nullptr);
  EXPECT_EQ(v.find("op")->text, "techfile");
  EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  EXPECT_NE(v.find("error")->find("message")->text.find("'id'"), std::string::npos);
}

TEST(WireExecute, OutOfRangeLinkDriveIsBadInput) {
  const obs::JsonValue v = error_of(
      "{\"op\":\"yield\",\"id\":2,\"link\":{\"tech\":\"65nm\",\"length_mm\":5,"
      "\"drive\":1e12},\"samples\":10}");
  EXPECT_EQ(v.find("id")->number, 2.0);
  EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  EXPECT_EQ(v.find("error")->find("exit_code")->number, 2.0);
  EXPECT_NE(v.find("error")->find("message")->text.find("'drive' is out of range"),
            std::string::npos);
}

// In-range integers that no link can have: rejected at the api boundary
// as bad_input naming the field, not as an internal error from the model.
TEST(WireExecute, ZeroLinkDriveIsBadInput) {
  const obs::JsonValue v = error_of(
      "{\"op\":\"evaluate\",\"link\":{\"tech\":\"65nm\",\"length_mm\":3,"
      "\"drive\":0}}");
  EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  EXPECT_EQ(v.find("error")->find("exit_code")->number, 2.0);
  EXPECT_NE(v.find("error")->find("message")->text.find("link.drive must be >= 1"),
            std::string::npos);
}

TEST(WireExecute, ZeroCharlibDriveIsBadInput) {
  const obs::JsonValue v =
      error_of("{\"op\":\"charlib\",\"tech\":\"65nm\",\"drives\":[4,0]}");
  EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  EXPECT_EQ(v.find("error")->find("exit_code")->number, 2.0);
  EXPECT_NE(v.find("error")->find("message")->text.find("every drive must be >= 1"),
            std::string::npos);
}

TEST(WireExecute, BufferWeightOutsideUnitIntervalIsBadInput) {
  const obs::JsonValue v = error_of(
      "{\"op\":\"buffer\",\"link\":{\"tech\":\"65nm\",\"length_mm\":3},"
      "\"weight\":7}");
  EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  EXPECT_EQ(v.find("error")->find("exit_code")->number, 2.0);
  EXPECT_NE(v.find("error")->find("message")->text.find("weight must be in [0, 1]"),
            std::string::npos);
}

TEST(WireExecute, OutOfRangeSamplesIsBadInput) {
  const obs::JsonValue v = error_of(
      "{\"op\":\"yield\",\"id\":3,\"link\":{\"tech\":\"65nm\",\"length_mm\":5},"
      "\"samples\":4294967297}");
  EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
  EXPECT_NE(v.find("error")->find("message")->text.find("'samples' is out of range"),
            std::string::npos);
}

TEST(WireIdentity, ReaderKeepsOnlyIntegerIdsInRange) {
  const wire::Identity ok = wire::read_identity("{\"op\":\"stats\",\"id\":12}");
  EXPECT_TRUE(ok.has_id);
  EXPECT_EQ(ok.id, 12);
  EXPECT_EQ(ok.op, "stats");
  EXPECT_FALSE(wire::read_identity("{\"op\":\"stats\",\"id\":1.5}").has_id);
  EXPECT_FALSE(wire::read_identity("{\"op\":\"stats\",\"id\":1e300}").has_id);
  const wire::Identity malformed = wire::read_identity("{\"op\":");
  EXPECT_FALSE(malformed.has_id);
  EXPECT_EQ(malformed.op, "");
}

TEST(WireExecute, RepeatLinesAreByteIdentical) {
  const std::string line = "{\"op\":\"techfile\",\"id\":1,\"tech\":\"65nm\"}";
  const std::string first = wire::execute_line(line);
  const std::string second = wire::execute_line(line);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos);
}

// A warm evaluate line that names no coefficient file, answered from the
// resident model a file warmed (the serving pattern), makes at most
// kBudget heap allocations end to end: parse, decode, run, encode.
TEST(WireExecute, WarmEvaluateLineStaysWithinItsAllocationBudget) {
  constexpr int64_t kBudget = 40;
  const std::string dir =
      ::testing::TempDir() + "pim_wire_alloc_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  cache::set_dir(dir + "/cache");
  cache::set_mode(cache::Mode::ReadWrite);
  clear_resident_fits();
  const std::string path = dir + "/coeffs.pimfit";
  save_fit(synthetic_fit(technology(TechNode::N65)), path);
  const std::string warm = wire::execute_line(
      "{\"op\":\"evaluate\",\"id\":1,\"link\":{\"tech\":\"65nm\",\"length_mm\":3,"
      "\"coeffs_path\":\"" + path + "\"}}");
  ASSERT_NE(warm.find("\"ok\":true"), std::string::npos) << warm;
  // The canonical line a client writes, every field spelled out.
  LinkEvalRequest request;
  request.link.tech = "65nm";
  request.link.length_mm = 3;
  const std::string line = wire::write_request_line(2, AnyRequest{request});
  const std::string first = wire::execute_line(line);
  const int64_t before = heap_allocations();
  const std::string response = wire::execute_line(line);
  const int64_t allocations = heap_allocations() - before;
  EXPECT_EQ(response, first);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_LE(allocations, kBudget);
  RecordProperty("allocations", static_cast<int>(allocations));
  clear_resident_fits();
  cache::reset_mode();
  cache::set_dir("");
  std::filesystem::remove_all(dir);
}

TEST(RunBatch, ResultsAreOrderPreservingAndPerItem) {
  BatchRequest batch;
  TechfileRequest good;
  good.tech = "65nm";
  TechfileRequest bad;
  bad.tech = "no-such-tech";
  TechfileRequest good2;
  good2.tech = "45nm";
  batch.items.emplace_back(good);
  batch.items.emplace_back(bad);
  batch.items.emplace_back(good2);
  const Expected<BatchResult> out = run_batch(batch);
  ASSERT_TRUE(out.ok());
  const BatchResult& result = out.value();
  ASSERT_EQ(result.items.size(), 3u);
  EXPECT_EQ(result.failed, 1);
  EXPECT_FALSE(result.partial);
  ASSERT_TRUE(result.items[0].ok());
  EXPECT_FALSE(result.items[1].ok());  // one bad item never kills the batch
  ASSERT_TRUE(result.items[2].ok());
  EXPECT_NE(std::get<TechfileResult>(result.items[0].value()).text.find("65nm"),
            std::string::npos);
  EXPECT_NE(std::get<TechfileResult>(result.items[2].value()).text.find("45nm"),
            std::string::npos);
}

TEST(RunBatch, EmptyBatchSucceedsTrivially) {
  const Expected<BatchResult> out = run_batch(BatchRequest{});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().items.empty());
  EXPECT_EQ(out.value().failed, 0);
  EXPECT_FALSE(out.value().partial);
}

TEST(RunBatch, VersionMismatchRejectsTheWholeBatch) {
  BatchRequest batch;
  batch.api_version = 999;
  TechfileRequest t;
  t.tech = "65nm";
  batch.items.emplace_back(t);
  const Expected<BatchResult> out = run_batch(batch);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code(), ErrorCode::bad_input);
}

TEST(RunBatch, PendingCancelTruncatesWithStopErrorsPerItem) {
  deadline::reset();
  deadline::request_cancel();
  BatchRequest batch;
  TechfileRequest t;
  t.tech = "65nm";
  batch.items.emplace_back(t);
  batch.items.emplace_back(t);
  const Expected<BatchResult> out = run_batch(batch);
  deadline::reset();
  ASSERT_TRUE(out.ok());  // the batch itself returns gracefully
  const BatchResult& result = out.value();
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.failed, 2);
  ASSERT_EQ(result.items.size(), 2u);
  for (const Expected<AnyResult>& item : result.items) {
    ASSERT_FALSE(item.ok());
    EXPECT_EQ(item.error().code(), ErrorCode::cancelled);
    EXPECT_NE(std::string(item.error().what()).find("never started"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace pim::api
