// protocol.h — the otem.serve.v1 request/response schema.
//
// One JSON object per line, both directions. Requests:
//
//   {"schema": "otem.serve.v1",
//    "method": "run" | "ping" | "metrics" | "stats" | "methods"
//            | "session.open" | "session.step" | "session.close",
//    "id": <any JSON value, echoed back verbatim>,        (optional)
//    "deadline_ms": <number in [0, kMaxDeadlineMs]>,      (optional)
//    "cache": "use" | "bypass",                           (optional)
//    "hex_doubles": bool,                                 (optional)
//    "session": "<session id>",        (session.step / session.close)
//    "p_request_w": <finite number>,   (session.step, optional)
//    "overrides": {"key": "value" | number | bool, ...}}  (optional)
//
// `overrides` carries the same key=value vocabulary as the otem_cli
// command line (scenario keys from sim/scenario.h plus any spec
// parameter); numbers and booleans are coerced to their config string
// forms. `hex_doubles` asks run/session.close replies to carry a
// "report_hex" twin of the report whose doubles are IEEE-754 bit
// patterns (strings::hex_double) — the opt-in that makes remote
// summaries bit-exact. The session.* methods drive a resident
// controller one protocol step at a time (serve/session.h). Responses:
//
//   {"schema": "otem.serve.v1", "id": ..., "ok": true,
//    "cached": bool, "result": {...}}                       (success)
//   {"schema": "otem.serve.v1", "id": ..., "ok": false,
//    "error": "<code>", "message": "..."}                   (failure)
//
// Success envelopes are assembled by splicing the PRE-SERIALIZED
// result document into the line, so a cached result is byte-identical
// to the original computation — the property the CI smoke test pins.
//
// Error codes are a closed set (to_string below); unknown methods and
// malformed frames are answered in-protocol and never kill the
// connection.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace otem::serve {

inline constexpr const char* kSchema = "otem.serve.v1";

/// Largest accepted "deadline_ms": one day. Larger (or non-finite)
/// values are refused with bad_request.
inline constexpr double kMaxDeadlineMs = 86'400'000.0;

enum class ErrorCode {
  kBadRequest,        ///< malformed JSON, schema/type errors, bad overrides
  kUnknownMethod,     ///< well-formed frame, method not in the vocabulary
  kOversizedFrame,    ///< frame exceeded the size ceiling (codec-level)
  kOverloaded,        ///< admission queue full — retry with backoff
  kDraining,          ///< server is shutting down, not accepting work
  kDeadlineExceeded,  ///< request deadline expired before completion
  kCancelled,         ///< work abandoned (drain cancelled in-flight run)
  kUnknownSession,    ///< session id not resident (never opened, closed,
                      ///< or evicted by the LRU/TTL policy)
  kSessionLimit,      ///< session table full and nothing evictable
  kInternal,          ///< unexpected server-side failure
};

const char* to_string(ErrorCode code);

/// A parsed, validated request frame.
struct Request {
  std::string method;
  Json id;  ///< echoed verbatim in the response; kNull when absent
  double deadline_ms = 0.0;  ///< 0 = no deadline
  bool cache_bypass = false;
  /// Opt-in bit-exact reports: run / session.close results gain a
  /// "report_hex" twin with hex-encoded doubles.
  bool hex_doubles = false;
  /// Target session id (session.step / session.close).
  std::string session;
  /// session.step: the power request for this step [W]. When absent the
  /// session serves the next value of its own route trace.
  double p_request_w = 0.0;
  bool has_p_request = false;
  /// Scenario/spec overrides in document order, values already coerced
  /// to config string form.
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// Parse and validate one request line. Throws otem::SimError with a
/// client-presentable message on any malformed input (the server maps
/// that to a kBadRequest response).
Request parse_request(const std::string& line);

/// Serialize a request (the client side of the protocol).
std::string build_request(const Request& request);

/// Success envelope with `result_json` (a pre-serialized compact JSON
/// document) spliced in verbatim.
std::string build_ok_response(const Json& id, bool cached,
                              const std::string& result_json);

/// Error envelope.
std::string build_error_response(const Json& id, ErrorCode code,
                                 const std::string& message);

}  // namespace otem::serve
