// Blocking line-protocol client for the estimation service.
//
// Shared by the `grw query` subcommand, the bench load generator and the
// serve tests: connect once, then RoundTrip() request lines — the server
// answers strictly in order, so one in-flight request per client needs
// no correlation ids.
//
// Every wait is bounded by default (Options): a hung or wedged server
// yields a clear std::runtime_error instead of blocking the client
// forever. On top of the single-connection client, QueryWithRetry()
// implements the full resilience loop one logical query wants:
// reconnect-and-resend on transport failures, honor the server's
// structured RETRY_AFTER load-shed hint, capped exponential backoff
// with jitter between attempts, and never retry an error that is a
// final answer.

#pragma once

#include <cstdint>
#include <string>

#include "util/flags.h"

namespace grw::serve {

/// The ESTIMATE line for graph id `graph` from the estimation flags that
/// `grw query` sends and `grw estimate` parses and runs locally, so every
/// default and range check is the protocol parser's: --k (default 4),
/// --d, --css, --nb, --steps / --max-steps (the step cap; --max-steps
/// wins), --seed, --chains, --target-nrmse, --crawl, --budget-queries
/// and --cache-size, each only if set. Values go through the typed flag
/// getters, so none can smuggle in a second field.
std::string EstimateRequestLine(const Flags& flags, const std::string& graph);

class QueryClient {
 public:
  struct Options {
    /// Bound on establishing the TCP connection. -1 waits forever.
    int connect_timeout_ms = 5'000;
    /// Bound on each wait for response bytes. Covers the engine run the
    /// server performs before answering, so it is generous by default;
    /// -1 waits forever (pre-PR-9 behavior, not recommended).
    int read_timeout_ms = 30'000;
    /// Bound on each send. Sends only block when the peer's socket
    /// buffer is full, so this guards against a wedged (not merely
    /// slow) server.
    int write_timeout_ms = 30'000;
  };

  /// Connects to host:port; throws std::runtime_error on failure or
  /// connect timeout. The two-argument form uses the default Options.
  QueryClient(const std::string& host, int port);
  QueryClient(const std::string& host, int port, const Options& options);
  ~QueryClient();

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// Sends `line` (newline appended) and returns the single response
  /// line, without its newline. Throws std::runtime_error if the server
  /// hangs up mid-exchange or a timeout elapses.
  std::string RoundTrip(const std::string& line);

 private:
  Options opt_;
  int fd_ = -1;
  std::string buffer_;  // bytes past the last returned response line
};

/// Retry policy for QueryWithRetry: exponential backoff base * 2^attempt
/// capped at max, plus up to half again as uniform jitter from a
/// fixed-seed stream (so a fleet of shed clients does not resend in
/// lockstep), REAL wall-clock sleeps (unlike the crawl failure model, a
/// live client actually waits).
struct RetryPolicy {
  /// Retries after the first attempt (so max_retries + 1 attempts total).
  int max_retries = 4;
  double backoff_base_ms = 25.0;
  double backoff_max_ms = 2'000.0;
};

/// The result of one logical query through the retry loop.
struct QueryOutcome {
  /// The final response line. Empty iff transport_error.
  std::string response;
  /// Connection/send/receive attempts made (>= 1).
  int attempts = 1;
  /// Retries performed (attempts - 1): transport failures + load sheds.
  int retries = 0;
  /// True when every attempt failed at the transport layer (connect,
  /// timeout, hangup) — `error` describes the last failure and
  /// `response` is empty. A false value with an error response in
  /// `response` means the SERVER answered; that answer is final.
  bool transport_error = false;
  std::string error;
};

/// One logical query with bounded retries. Retried: transport failures
/// (fresh connection per attempt — the old stream is poisoned) and
/// structured RETRY_AFTER load-shed responses, honoring the server's
/// retry_after_ms hint (capped at policy.backoff_max_ms). NOT retried:
/// any other error response — those are final answers (bad request,
/// unknown graph, deadline exceeded), and resending cannot change them.
/// Never throws; transport failure is reported in the outcome.
QueryOutcome QueryWithRetry(const std::string& host, int port,
                            const std::string& line,
                            const QueryClient::Options& options = {},
                            const RetryPolicy& policy = {});

}  // namespace grw::serve
