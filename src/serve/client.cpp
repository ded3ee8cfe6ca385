#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "serve/json.h"
#include "serve/protocol.h"
#include "util/posix_io.h"
#include "util/rng.h"

namespace grw::serve {

std::string EstimateRequestLine(const Flags& flags, const std::string& graph) {
  std::string line =
      "ESTIMATE graph=" + graph + " k=" + std::to_string(flags.GetInt("k", 4));
  const auto integer = [&](const char* field, const char* flag) {
    if (flags.Has(flag)) {
      line += std::string(" ") + field + "=" +
              std::to_string(flags.GetInt(flag, 0));
    }
  };
  const auto boolean = [&](const char* field) {
    if (flags.Has(field)) {
      line += std::string(" ") + field + (flags.GetBool(field) ? "=1" : "=0");
    }
  };
  integer("d", "d");
  boolean("css");
  boolean("nb");
  integer("steps", flags.Has("max-steps") ? "max-steps" : "steps");
  integer("seed", "seed");
  integer("chains", "chains");
  if (flags.Has("target-nrmse")) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  flags.GetDouble("target-nrmse", 0.0));
    line += std::string(" target_nrmse=") + buf;
  }
  if (flags.GetBool("crawl")) line += " crawl=1";
  integer("budget", "budget-queries");
  integer("cache", "cache-size");
  return line;
}

QueryClient::QueryClient(const std::string& host, int port)
    : QueryClient(host, port, Options{}) {}

QueryClient::QueryClient(const std::string& host, int port,
                         const Options& options)
    : opt_(options) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("query: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("query: invalid host '" + host + "'");
  }
  if (io::ConnectWithTimeout(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr), opt_.connect_timeout_ms) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    std::string what = "query: cannot connect to " + host + ":" +
                       std::to_string(port) + ": ";
    what += err == ETIMEDOUT
                ? "timed out after " +
                      std::to_string(opt_.connect_timeout_ms) + "ms"
                : std::strerror(err);
    throw std::runtime_error(what);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

QueryClient::~QueryClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string QueryClient::RoundTrip(const std::string& line) {
  std::string request = line;
  request += '\n';
  const io::IoResult w = io::WriteAll(fd_, request, opt_.write_timeout_ms);
  if (!w.ok()) {
    if (w.status == io::IoResult::Status::kTimeout) {
      throw std::runtime_error("query: send timed out after " +
                               std::to_string(opt_.write_timeout_ms) + "ms");
    }
    throw std::runtime_error("query: write failed: " +
                             std::string(std::strerror(w.error)));
  }
  char chunk[4096];
  while (true) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string response = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!response.empty() && response.back() == '\r') response.pop_back();
      return response;
    }
    const io::IoResult r =
        io::ReadSome(fd_, chunk, sizeof(chunk), opt_.read_timeout_ms);
    if (r.ok()) {
      buffer_.append(chunk, r.bytes);
      continue;
    }
    switch (r.status) {
      case io::IoResult::Status::kTimeout:
        throw std::runtime_error("query: no response after " +
                                 std::to_string(opt_.read_timeout_ms) +
                                 "ms (server hung?)");
      case io::IoResult::Status::kEof:
        throw std::runtime_error("query: server closed the connection");
      default:
        throw std::runtime_error("query: read failed: " +
                                 std::string(std::strerror(r.error)));
    }
  }
}

namespace {

// Extra uniform wait fraction in [0, kJitter) per backoff, drawn from a
// stream seeded with kJitterSeed.
constexpr double kJitter = 0.5;
constexpr uint64_t kJitterSeed = 0x72657472795eedULL;

// A load-shed response carries "code": "RETRY_AFTER" plus the server's
// backoff hint; anything else — including unparseable bytes — is a final
// answer. Returns the hint in ms (>= 0) or a negative value for "not a
// retryable response".
double RetryAfterHintMs(const std::string& response) {
  const std::optional<JsonValue> parsed = ParseJson(response);
  if (!parsed.has_value()) return -1.0;
  const JsonValue* code = parsed->Find("code");
  if (code == nullptr || code->type != JsonValue::Type::kString ||
      code->str != kErrorCodeRetryAfter) {
    return -1.0;
  }
  const JsonValue* hint = parsed->Find("retry_after_ms");
  if (hint != nullptr && hint->type == JsonValue::Type::kNumber &&
      hint->number >= 0.0) {
    return hint->number;
  }
  return 0.0;  // shed without a usable hint: pure policy backoff
}

}  // namespace

QueryOutcome QueryWithRetry(const std::string& host, int port,
                            const std::string& line,
                            const QueryClient::Options& options,
                            const RetryPolicy& policy) {
  QueryOutcome out;
  Rng jitter_rng(kJitterSeed);
  const int max_retries = std::max(0, policy.max_retries);

  // Waits the policy's backoff for `attempt`, at least `hint_ms`, capped
  // at backoff_max_ms, plus jitter.
  const auto back_off = [&](int attempt, double hint_ms) {
    double wait = policy.backoff_base_ms * std::ldexp(1.0, attempt);
    wait = std::min(std::max(wait, hint_ms), policy.backoff_max_ms);
    wait += wait * kJitter * jitter_rng.UniformReal();
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(wait * 1000.0)));
  };

  // One reusable connection across load-shed retries (the stream stays
  // healthy — the server ANSWERED), but rebuilt from scratch after any
  // transport failure, whose stream is poisoned mid-exchange.
  std::unique_ptr<QueryClient> client;
  for (int attempt = 0;; ++attempt) {
    out.attempts = attempt + 1;
    out.retries = attempt;
    std::string response;
    try {
      if (client == nullptr) {
        client = std::make_unique<QueryClient>(host, port, options);
      }
      response = client->RoundTrip(line);
    } catch (const std::exception& e) {
      client.reset();
      out.error = e.what();
      if (attempt >= max_retries) {
        out.transport_error = true;
        return out;
      }
      // Policy backoff only — a transport failure has no server hint.
      back_off(attempt, 0.0);
      continue;
    }

    const double hint_ms = RetryAfterHintMs(response);
    if (hint_ms < 0.0 || attempt >= max_retries) {
      // Final answer (ok, or a non-retryable error, or retries spent —
      // the last shed response is still a clean structured error).
      out.response = std::move(response);
      out.error.clear();
      out.transport_error = false;
      return out;
    }
    // Load shed: honor the server's hint, but never beyond the policy
    // cap, and at least the policy's own backoff curve so a zero hint
    // still spaces attempts out.
    back_off(attempt, hint_ms);
  }
}

}  // namespace grw::serve
