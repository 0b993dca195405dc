// pim::api::wire — the canonical JSON wire codec for the facade.
//
// Every pim::api request and result struct has exactly one JSON object
// shape here, produced and consumed by one shared field-binding per
// struct, so serialization and parsing cannot drift apart. The daemon
// (pimd), the `pim serve` client, and in-process callers all speak this
// codec; a warm daemon response is byte-identical to a direct
// pim::api call serialized with the same functions.
//
// Protocol (docs/serving.md): one JSON object per line, no pretty
// printing. Requests are a flat envelope — the request struct's fields
// spread alongside the routing keys:
//
//   {"op":"evaluate","id":7,"api_version":3,"deadline_ms":0,
//    "link":{"tech":"65nm","length_mm":5},"golden":false}
//
// Responses echo the id and op:
//
//   {"id":7,"op":"evaluate","ok":true,"result":{...}}
//   {"id":7,"op":"evaluate","ok":false,"error":{"code":"bad_input",
//    "exit_code":2,"message":"...","context":[]}}
//
// Contract:
//  - Absent request fields keep the struct defaults, so additive API
//    evolution never breaks an old client.
//  - Unknown or duplicate fields are rejected as bad_input — a typo'd
//    field name fails loudly instead of silently running the default.
//  - api_version is validated during decode, before any dispatch.
//  - Integers ride JSON numbers (doubles): exact up to 2^53, which
//    covers every count/seed/byte total the API carries in practice.
#pragma once

#include <cstdint>
#include <string>

#include "api/pim_api.hpp"
#include "obs/report.hpp"

namespace pim::api::wire {

/// Stable wire op name of a request/result alternative ("techfile",
/// "charlib", "fit", "evaluate", "buffer", "yield", "noise", "timer",
/// "corners", "export", "synthesis", "invalidate", "cache").
std::string op_of(const AnyRequest& request);
std::string op_of(const AnyResult& result);

/// The batch envelope op ({"op":"batch","items":[...]}).
inline constexpr const char* kBatchOp = "batch";

/// Canonical JSON object text for one struct (no envelope, no
/// whitespace, fields in declaration order). Instantiated for every
/// pim::api request/result struct plus LinkSpec and the row structs.
template <typename T>
std::string to_json(const T& value);

/// Decodes one struct from a parsed JSON object. Absent members keep
/// the struct defaults; unknown members, duplicate members, and type
/// mismatches throw Error(bad_input). `who` prefixes error messages.
template <typename T>
T from_json_object(const obs::JsonValue& object, const std::string& who);

/// from_json_object over a full document.
template <typename T>
T from_json(const std::string& text, const std::string& who);

// ---------------------------------------------------------------------------
// Request lines
// ---------------------------------------------------------------------------

/// One parsed request line: the routing identity plus either a single
/// request or a batch, depending on the op.
struct RequestLine {
  bool has_id = false;
  int64_t id = 0;
  std::string op;
  bool is_batch = false;
  AnyRequest request;  ///< when !is_batch
  BatchRequest batch;  ///< when is_batch
};

/// Serializes one request (or batch) as a canonical envelope line
/// (without the trailing newline). Batch items are nested envelopes
/// carrying their op but no id.
std::string write_request_line(int64_t id, const AnyRequest& request);
std::string write_request_line(int64_t id, const BatchRequest& request);

/// Parses a request envelope. Throws Error(bad_input) on malformed
/// JSON, a missing/unknown op, unknown fields, or an api_version
/// mismatch — validated here, before any dispatch.
RequestLine parse_request_line(const std::string& line);
RequestLine request_from_envelope(const obs::JsonValue& envelope);

// ---------------------------------------------------------------------------
// Response lines
// ---------------------------------------------------------------------------

/// Serializes one response envelope for a single request.
std::string write_result_line(const RequestLine& request,
                              const Expected<AnyResult>& result);

/// Serializes a batch response: the result object carries the batch
/// counters plus an order-aligned "items" array of per-item envelopes
/// ({"op":...,"ok":...,"result"/"error":...}).
std::string write_batch_result_line(const RequestLine& request,
                                    const Expected<BatchResult>& result);

/// Serializes an error response for a request whose identity may only
/// be partially known (e.g. a malformed line). `op` may be empty.
std::string write_error_line(bool has_id, int64_t id, const std::string& op,
                             const Error& error);

/// The single error shape every surface shares (daemon responses,
/// batch items, CLI diagnostics):
///   {"code":"bad_input","exit_code":2,"message":"...","context":[...]}
std::string error_to_json(const Error& error);

/// The process exit code the CLI maps `code` to: bad_input -> 2,
/// internal -> 4, deadline_exceeded/cancelled -> 5 (partial), every
/// other failure (io_parse, solver codes, overloaded) -> 3. Wire
/// responses embed the same number as "exit_code", so scripted callers
/// apply one contract to both surfaces (docs/api.md).
int exit_code_for(ErrorCode code);

/// Executes one request line in-process: parse -> run_any / run_batch
/// -> response line. Never throws: every failure, including a malformed
/// line, becomes an error response echoing whatever identity could be
/// recovered. The pimd worker and `pim serve --local` share this
/// function, which is what makes a warm daemon response byte-identical
/// to a direct in-process call.
std::string execute_line(const std::string& line);

}  // namespace pim::api::wire
