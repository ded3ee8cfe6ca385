// Wire protocol of the estimation service (`grw serve` / `grw query`).
//
// Line-oriented and human-typeable: a client sends one request per line
// and receives one single-line JSON object per request, in order.
//
//   PING [v=1]
//   LIST [v=1]
//   ESTIMATE graph=<id> k=<3..6> [v=1] [d=D] [css=0|1] [nb=0|1] [steps=N]
//            [target_nrmse=X] [seed=S] [chains=C] [crawl=0|1]
//            [budget=B] [cache=C] [deadline_ms=MS] [tenant=NAME]
//
// The protocol is VERSIONED: every request may carry `v=N` (any verb) and
// every response object leads with `"v": 1`. A v-less request is the
// legacy dialect and means v=1 — old clients keep working unchanged; a
// request with v above kProtocolVersion is rejected with a structured
// error naming the supported version, so a new client talking to an old
// server fails loudly at the first exchange instead of misparsing
// replies. PING doubles as capability discovery: its response lists the
// server's optional features (crawl, sharded; batch is always false — the
// key stays so v=1 clients that read it still parse the reply) and its
// request limits, so clients can feature-gate without try-and-see.
//
// The request defaults live here and nowhere else — d defaults to
// (k == 3 ? 1 : 2), css to (d <= 2), nb to (k == 3), steps to 100000,
// seed to 42, chains to 1. `grw query` sends, and `grw estimate` parses
// here without request limits, the same line (EstimateRequestLine,
// client.h), so a served estimate is bit-identical to the CLI run with
// the same snapshot and flags by construction. `budget`/`cache`/`crawl`
// switch the request onto the crawl accounting layer; `deadline_ms` (at
// most 24 h = 86400000) arms cooperative cancellation
// (EngineOptions::cancel) measured from admission; `tenant` attributes
// the request to a per-tenant distinct-query budget when the server
// enforces one.
//
// Parsing is *strict*, with the same full-string numeric rules as the
// flag parser (util/flags.h ParseInt64/ParseDouble/ParseBool): unknown
// verbs, unknown keys, bare words, malformed or out-of-range numbers all
// produce a one-line error *response* — never a crash, never a silent
// misparse. Server-side resource limits (max steps, max chains) are
// enforced here too, so a hostile "huge budget" request dies at parse
// time instead of taking a run slot.

#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.h"
#include "engine/engine.h"

namespace grw::serve {

/// The wire protocol version this build speaks. Bump only for changes an
/// old client could misparse; additive response fields do not count.
inline constexpr int kProtocolVersion = 1;

/// Server-side caps applied at parse time. Requests beyond them are
/// rejected with an error response (admission control for resources the
/// scheduler's queue bound cannot see).
struct RequestLimits {
  uint64_t max_steps = 50'000'000;
  int max_chains = 256;

  /// No caps: `grw estimate` runs its request locally.
  static RequestLimits None() {
    return {static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
            std::numeric_limits<int>::max()};
  }
};

/// One parsed ESTIMATE request, with the request defaults.
struct EstimateRequest {
  std::string graph;
  EstimatorConfig config;  // k/d/css/nb resolved to the defaults
  uint64_t max_steps = 100000;
  uint64_t seed = 42;
  int chains = 1;
  double target_nrmse = 0.0;
  /// Crawl accounting: enabled by crawl=1 or by the presence of a budget
  /// or cache field.
  bool crawl = false;
  uint64_t budget_queries = 0;
  uint64_t cache_entries = 0;
  /// 0 = no deadline. Measured from admission (waiting counts).
  double deadline_ms = 0.0;
  std::string tenant;
};

struct Request {
  enum class Verb { kPing, kList, kEstimate };
  Verb verb = Verb::kPing;
  EstimateRequest estimate;  // verb == kEstimate only
};

/// Outcome of parsing one request line: either a request or the error
/// text to send back (exactly one is set).
struct ParsedRequest {
  std::optional<Request> request;
  std::string error;
};

/// Parses one request line (without the trailing newline; a trailing
/// '\r' is tolerated for netcat/CRLF clients).
ParsedRequest ParseRequestLine(std::string_view line,
                               const RequestLimits& limits);

/// Engine options for a parsed request: chains/steps/seed/target plus the
/// crawl options when the request crawls, with round_steps pinned
/// whenever a target or several chains are set (so the batch structure
/// never depends on progress reporting). A request with a deadline
/// additionally pins round_steps so cancellation has round boundaries to
/// land on; that never changes the merged estimate of a completed run.
/// The caller wires pool/cancel.
EngineOptions ToEngineOptions(const EstimateRequest& req);

/// Response lines (all single-line JSON objects, no trailing newline,
/// each leading with `"v": kProtocolVersion`).
std::string ErrorResponse(std::string_view error);

/// Capability discovery: `{"v":1,"ok":true,"pong":true,"capabilities":
/// {"batch":false,"crawl":true,"sharded":true},"limits":{...}}` echoing
/// the server's request limits.
std::string PingResponse(const RequestLimits& limits);

/// Machine-readable error code for load shedding: clients that see
/// `"code": "RETRY_AFTER"` should back off `retry_after_ms` and resend —
/// the request was REFUSED BEFORE any work, so retrying is always safe.
/// Other error responses are final answers and must not be retried.
inline constexpr std::string_view kErrorCodeRetryAfter = "RETRY_AFTER";

/// {"ok":false,"error":...,"code":"RETRY_AFTER","retry_after_ms":N} —
/// the scheduler's admission-queue-full load shed.
std::string OverloadedResponse(std::string_view error, double retry_after_ms);

/// {"ok":true,...,"labels":[...],"concentrations":[...]} with the
/// concentrations in paper order, %.17g (bit-exact round trip), after
/// the steps, rounds and the converged / cancelled / budget_exhausted
/// flags. A crawl request adds distinct_queries and fetches. A run read
/// through a ShardStore adds a "shards" block of the run's own
/// EngineResult::shards: faults, hits, evictions, peak_resident_bytes and
/// budget_bytes.
std::string EstimateResponse(const EstimateRequest& req,
                             const EngineResult& result);

/// One registry entry for LIST responses.
struct GraphListEntry {
  std::string id;
  std::string path;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  uint64_t checksum = 0;
};
std::string ListResponse(const std::vector<GraphListEntry>& graphs);

}  // namespace grw::serve
