#include "serve/protocol.h"

#include <cmath>
#include <limits>

#include "core/paper_ids.h"
#include "graphlet/catalog.h"
#include "serve/json.h"
#include "util/flags.h"

namespace grw::serve {

namespace {

// Longest accepted deadline_ms (24 h): a huge one would overflow the
// clock arithmetic that arms it (1e13 ms read as already expired).
constexpr int64_t kMaxDeadlineMs = 86'400'000;

// Splits on runs of spaces. Tabs and other whitespace are NOT separators:
// the protocol is spaces-only, and anything else lands inside a token
// where the strict field parsing rejects it.
std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

ParsedRequest Fail(std::string error) {
  ParsedRequest out;
  out.error = std::move(error);
  return out;
}

// Every response object leads with the protocol version so clients can
// gate their parsing on the very first field.
std::string ResponseHead() {
  return "{\"v\": " + std::to_string(kProtocolVersion);
}

// Validates a `v=` field value (any verb). Empty return = accepted; a
// v-less request never reaches here and means v=1 (legacy dialect).
std::string CheckVersion(const std::string& value) {
  const std::optional<int64_t> v = ParseInt64(value);
  if (!v.has_value()) {
    return "field v: invalid integer '" + value + "'";
  }
  if (*v < 1 || *v > kProtocolVersion) {
    return "unsupported protocol version v=" + value +
           " (this server speaks v=" + std::to_string(kProtocolVersion) +
           ")";
  }
  return {};
}

// Field accumulator with the request defaults resolved at the end.
struct EstimateFields {
  EstimateRequest req;
  bool have_k = false;
  bool have_d = false;
  bool have_css = false;
  bool have_nb = false;

  // Returns an empty string on success, the error text otherwise.
  std::string Set(const std::string& key, const std::string& value,
                  const RequestLimits& limits) {
    auto bad = [&](const char* kind) {
      return "field " + key + ": invalid " + kind + " '" + value + "'";
    };
    auto get_int = [&](int64_t min, int64_t max, int64_t& out,
                       std::string& err) {
      const std::optional<int64_t> v = ParseInt64(value);
      if (!v.has_value()) {
        err = bad("integer");
        return false;
      }
      if (*v < min || *v > max) {
        err = "field " + key + ": value " + value + " out of range [" +
              std::to_string(min) + ", " + std::to_string(max) + "]";
        return false;
      }
      out = *v;
      return true;
    };
    std::string err;
    int64_t n = 0;
    if (key == "v") {
      return CheckVersion(value);
    } else if (key == "graph") {
      if (value.empty()) return "field graph: empty id";
      req.graph = value;
    } else if (key == "k") {
      if (!get_int(3, kMaxGraphletSize, n, err)) return err;
      req.config.k = static_cast<int>(n);
      have_k = true;
    } else if (key == "d") {
      if (!get_int(1, kMaxGraphletSize - 1, n, err)) return err;
      req.config.d = static_cast<int>(n);
      have_d = true;
    } else if (key == "css") {
      const std::optional<bool> b = ParseBool(value);
      if (!b.has_value()) return bad("boolean");
      req.config.css = *b;
      have_css = true;
    } else if (key == "nb") {
      const std::optional<bool> b = ParseBool(value);
      if (!b.has_value()) return bad("boolean");
      req.config.nb = *b;
      have_nb = true;
    } else if (key == "steps") {
      if (!get_int(1, static_cast<int64_t>(limits.max_steps), n, err)) {
        return err;
      }
      req.max_steps = static_cast<uint64_t>(n);
    } else if (key == "target_nrmse") {
      const std::optional<double> v = ParseDouble(value);
      if (!v.has_value()) return bad("number");
      if (*v < 0.0) return "field target_nrmse: must be >= 0";
      req.target_nrmse = *v;
    } else if (key == "seed") {
      // The range `--seed` takes; a negative seed must not wrap to a huge
      // uint64 and desynchronize "same seed" reproductions across tools.
      if (!get_int(0, std::numeric_limits<int64_t>::max(), n, err)) {
        return err;
      }
      req.seed = static_cast<uint64_t>(n);
    } else if (key == "chains") {
      if (!get_int(1, limits.max_chains, n, err)) return err;
      req.chains = static_cast<int>(n);
    } else if (key == "crawl") {
      const std::optional<bool> b = ParseBool(value);
      if (!b.has_value()) return bad("boolean");
      req.crawl = *b;
    } else if (key == "budget") {
      if (!get_int(0, std::numeric_limits<int64_t>::max(), n, err)) {
        return err;
      }
      req.budget_queries = static_cast<uint64_t>(n);
      req.crawl = true;
    } else if (key == "cache") {
      if (!get_int(0, std::numeric_limits<int64_t>::max(), n, err)) {
        return err;
      }
      req.cache_entries = static_cast<uint64_t>(n);
      req.crawl = true;
    } else if (key == "deadline_ms") {
      const std::optional<double> v = ParseDouble(value);
      if (!v.has_value()) return bad("number");
      if (*v < 0.0 || *v > kMaxDeadlineMs) {
        return "field deadline_ms: must be in [0, " +
               std::to_string(kMaxDeadlineMs) + "]";
      }
      req.deadline_ms = *v;
    } else if (key == "tenant") {
      if (value.empty()) return "field tenant: empty id";
      req.tenant = value;
    } else {
      return "unknown field '" + key + "'";
    }
    return {};
  }

  std::string Finish() {
    if (req.graph.empty()) return "missing required field graph";
    if (!have_k) return "missing required field k";
    // The request defaults, in order: d from k, css from the *resolved*
    // d, nb from k.
    if (!have_d) req.config.d = req.config.k == 3 ? 1 : 2;
    if (req.config.d >= req.config.k) {
      return "field d: must satisfy 1 <= d < k";
    }
    if (!have_css) req.config.css = req.config.d <= 2;
    if (!have_nb) req.config.nb = req.config.k == 3;
    if (req.budget_queries > 0 &&
        req.budget_queries < static_cast<uint64_t>(req.chains)) {
      return "field budget: must be >= chains (every chain needs a "
             "positive distinct-query share)";
    }
    return {};
  }
};

}  // namespace

ParsedRequest ParseRequestLine(std::string_view line,
                               const RequestLimits& limits) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return Fail("empty request");

  ParsedRequest out;
  const std::string& verb = tokens[0];
  if (verb == "PING" || verb == "LIST") {
    // The only field these verbs take is the protocol version; anything
    // else is rejected by name, so a typo'd or future-protocol request
    // fails loudly instead of being silently ignored.
    for (size_t i = 1; i < tokens.size(); ++i) {
      const std::string& token = tokens[i];
      const size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Fail("malformed field '" + token + "' (expected key=value)");
      }
      const std::string key = token.substr(0, eq);
      if (key != "v") {
        return Fail("unknown field '" + key + "' (verb " + verb +
                    " takes only v=)");
      }
      std::string err = CheckVersion(token.substr(eq + 1));
      if (!err.empty()) return Fail(std::move(err));
    }
    out.request = Request{};
    out.request->verb =
        verb == "PING" ? Request::Verb::kPing : Request::Verb::kList;
    return out;
  }
  if (verb != "ESTIMATE") {
    return Fail("unknown verb '" + verb + "'");
  }

  EstimateFields fields;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Fail("malformed field '" + token + "' (expected key=value)");
    }
    std::string err = fields.Set(token.substr(0, eq), token.substr(eq + 1),
                                 limits);
    if (!err.empty()) return Fail(std::move(err));
  }
  std::string err = fields.Finish();
  if (!err.empty()) return Fail(std::move(err));

  out.request = Request{};
  out.request->verb = Request::Verb::kEstimate;
  out.request->estimate = std::move(fields.req);
  return out;
}

EngineOptions ToEngineOptions(const EstimateRequest& req) {
  EngineOptions options;
  options.chains = req.chains;
  options.max_steps = req.max_steps;
  options.base_seed = req.seed;
  options.target_nrmse = req.target_nrmse;
  if (req.crawl) {
    options.crawl.emplace();
    options.crawl->query_budget = req.budget_queries;
    options.crawl->cache_entries = req.cache_entries;
  }
  // Pin the round slicing whenever convergence checking or multi-chain
  // merging is on, so stopping points (and thus estimates under
  // target_nrmse) never depend on whether progress is reported. A
  // deadline needs round boundaries for cancellation to land on; round
  // slicing never changes the merged estimate of a run without early
  // stopping.
  if (req.target_nrmse > 0.0 || req.chains > 1 || req.deadline_ms > 0.0) {
    options.round_steps = EngineOptions::DefaultRoundSteps(req.max_steps);
  }
  return options;
}

std::string ErrorResponse(std::string_view error) {
  std::string out = ResponseHead() + ", \"ok\": false, \"error\": ";
  out += JsonQuote(error);
  out += "}";
  return out;
}

std::string OverloadedResponse(std::string_view error,
                               double retry_after_ms) {
  std::string out = ResponseHead() + ", \"ok\": false, \"error\": ";
  out += JsonQuote(error);
  out += ", \"code\": ";
  out += JsonQuote(kErrorCodeRetryAfter);
  out += ", \"retry_after_ms\": ";
  out += JsonNumber(retry_after_ms);
  out += "}";
  return out;
}

std::string PingResponse(const RequestLimits& limits) {
  std::string out = ResponseHead() + ", \"ok\": true, \"pong\": true";
  out += ", \"capabilities\": {\"batch\": false, \"crawl\": true, "
         "\"sharded\": true}";
  out += ", \"limits\": {\"max_steps\": " +
         std::to_string(limits.max_steps) +
         ", \"max_chains\": " + std::to_string(limits.max_chains) + "}}";
  return out;
}

std::string EstimateResponse(const EstimateRequest& req,
                             const EngineResult& result) {
  std::string out = ResponseHead() + ", \"ok\": true";
  out += ", \"graph\": " + JsonQuote(req.graph);
  out += ", \"method\": " + JsonQuote(req.config.Name());
  out += ", \"k\": " + std::to_string(req.config.k);
  out += ", \"d\": " + std::to_string(req.config.d);
  out += ", \"chains\": " + std::to_string(req.chains);
  out += ", \"seed\": " + std::to_string(req.seed);
  out += ", \"steps\": " + std::to_string(result.merged.steps);
  out += ", \"steps_per_chain\": " + std::to_string(result.steps_per_chain);
  out += ", \"rounds\": " + std::to_string(result.rounds);
  out += ", \"converged\": ";
  out += result.converged ? "true" : "false";
  out += ", \"cancelled\": ";
  out += result.cancelled ? "true" : "false";
  out += ", \"budget_exhausted\": ";
  out += result.budget_exhausted ? "true" : "false";
  out += ", \"seconds\": " + JsonNumber(result.seconds);
  if (req.crawl) {
    out += ", \"distinct_queries\": " +
           std::to_string(result.access.distinct_fetches);
    out += ", \"fetches\": " + std::to_string(result.access.fetches);
  }
  if (result.shards.faults + result.shards.hits > 0) {
    // Sharded (out-of-core) graph: surface the residency accounting so
    // a client can see what its resident budget cost.
    out += ", \"shards\": {\"faults\": " +
           std::to_string(result.shards.faults);
    out += ", \"hits\": " + std::to_string(result.shards.hits);
    out += ", \"evictions\": " + std::to_string(result.shards.evictions);
    out += ", \"peak_resident_bytes\": " +
           std::to_string(result.shards.peak_resident_bytes);
    out += ", \"budget_bytes\": " +
           std::to_string(result.shards.budget_bytes);
    out += "}";
  }
  // Paper order, like every table the CLI prints. An empty merged result
  // (zero completed rounds before a deadline) yields empty arrays.
  const std::vector<int>& order = PaperOrder(req.config.k);
  out += ", \"labels\": [";
  for (size_t pos = 0; pos < order.size(); ++pos) {
    if (pos > 0) out += ", ";
    out += JsonQuote(PaperLabel(req.config.k, static_cast<int>(pos)));
  }
  out += "], \"concentrations\": [";
  if (!result.merged.concentrations.empty()) {
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (pos > 0) out += ", ";
      out += JsonNumber(result.merged.concentrations[order[pos]]);
    }
  }
  out += "]}";
  return out;
}

std::string ListResponse(const std::vector<GraphListEntry>& graphs) {
  std::string out = ResponseHead() + ", \"ok\": true, \"graphs\": [";
  for (size_t i = 0; i < graphs.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"id\": " + JsonQuote(graphs[i].id);
    out += ", \"path\": " + JsonQuote(graphs[i].path);
    out += ", \"nodes\": " + std::to_string(graphs[i].nodes);
    out += ", \"edges\": " + std::to_string(graphs[i].edges);
    out += ", \"checksum\": " + std::to_string(graphs[i].checksum);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace grw::serve
