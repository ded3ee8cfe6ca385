// Serve-layer load generator: QPS and tail latency vs client count.
//
// Starts an in-process ServeServer on an ephemeral port with one
// in-memory Holme-Kim fixture graph, then sweeps a list of client
// counts: each client holds one connection and streams --requests
// ESTIMATE lines through it back-to-back, so C clients means C requests
// in flight against the shared worker pool. Per-request wall time is
// recorded client-side (the honest number: queue wait + engine run +
// two socket hops over loopback).
//
// With --check-identical every response is additionally required to be
// byte-for-byte the estimate a direct in-process EstimationEngine run
// produces for the same fields — the serve path's bit-identity contract
// under real concurrency, as a CI gate (exit 1 on any mismatch).
//
// Flags:
//   --clients LIST   comma-separated client counts (default "1,2,4,8")
//   --requests N     requests per client per point (default 16)
//   --n / --param    fixture Holme-Kim size (default 5000 x 4)
//   --steps N        walk steps per request (default 20000)
//   --k K            graphlet size per request (default 4)
//   --chains C       chains per request (default 2)
//   --workers W      scheduler workers (default 4)
//   --check-identical  fail unless every response matches a direct run
//   --csv / --json   table mirror / BENCH_SERVE.json metrics
//
// Metrics (per client count C): serve_qps_c{C}, serve_p50_ms_c{C},
// serve_p99_ms_c{C} — the perf-trajectory answer to "what does another
// concurrent tenant cost?" — plus serve_error_rate_c{C} (fraction of
// requests whose final answer was an error or a transport failure) and
// serve_retries_c{C} (RETRY_AFTER load sheds absorbed by resending on
// the same connection). In a clean run both are 0; chaos builds with
// GRW_FAULT_SPEC set make them visible in the perf trajectory.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/paper_ids.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

std::vector<int> ParseClientList(const std::string& list) {
  std::vector<int> clients;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const std::string tok =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!tok.empty()) {
      const auto parsed = grw::ParseInt64(tok);
      if (!parsed || *parsed < 1) {
        std::fprintf(stderr, "bench_serve: bad --clients entry '%s'\n",
                     tok.c_str());
        std::exit(2);
      }
      clients.push_back(static_cast<int>(*parsed));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return clients;
}

// Nearest-rank percentile: the smallest sample with at least p of the
// samples at or below it, so p99 of 100 samples is the 99th, not the max.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// Load-shed probe: a RETRY_AFTER response means the server answered but
// declined the work — the stream is healthy, so the bench resends on the
// same connection after the suggested wait. Returns that wait in
// milliseconds, or a negative value for any other response.
double ShedHintMs(const std::string& response) {
  const auto json = grw::serve::ParseJson(response);
  if (!json) return -1.0;
  const grw::serve::JsonValue* code = json->Find("code");
  if (code == nullptr || code->str != grw::serve::kErrorCodeRetryAfter) {
    return -1.0;
  }
  const grw::serve::JsonValue* hint = json->Find("retry_after_ms");
  return (hint != nullptr && hint->number >= 0.0) ? hint->number : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  const std::vector<int> client_counts =
      ParseClientList(flags.GetString("clients", "1,2,4,8"));
  const int requests = flags.GetInt32("requests", 16);
  const int64_t steps = flags.GetInt("steps", 20000);
  const int k = flags.GetInt32("k", 4);
  const int chains = flags.GetInt32("chains", 2);
  const bool check_identical = flags.GetBool("check-identical");

  // Fixture graph, registered in memory — the bench measures the serve
  // layer, not snapshot loading (bench_loader covers that).
  grw::Rng rng(7);
  const grw::Graph fixture =
      grw::HolmeKim(flags.GetUInt32("n", 5000),
                    flags.GetUInt32("param", 4), 0.5,
                    rng);
  const std::string context = "holme-kim fixture: " + fixture.Summary() +
                              ", steps=" + std::to_string(steps) +
                              ", chains=" + std::to_string(chains);
  std::fprintf(stderr, "[bench] %s\n", context.c_str());

  grw::serve::SnapshotRegistry registry;
  registry.RegisterGraph("bench", fixture);

  grw::serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.scheduler.workers =
      flags.GetInt32("workers", 4);
  grw::serve::ServeServer server(&registry, server_options);
  server.Start();

  const std::string request_line =
      "ESTIMATE graph=bench k=" + std::to_string(k) +
      " steps=" + std::to_string(steps) +
      " chains=" + std::to_string(chains);

  // Reference answer for --check-identical: the direct engine run the
  // serve path must reproduce byte for byte (after %.17g formatting,
  // which is exactly what the wire carries).
  std::vector<std::string> expected;
  if (check_identical) {
    grw::serve::RequestLimits limits;
    limits.max_steps = static_cast<uint64_t>(steps);
    const auto parsed = grw::serve::ParseRequestLine(request_line, limits);
    if (!parsed.request) {
      std::fprintf(stderr, "bench_serve: bad request line: %s\n",
                   parsed.error.c_str());
      return 2;
    }
    const grw::serve::EstimateRequest& req = parsed.request->estimate;
    grw::EstimationEngine engine(fixture, req.config,
                                 grw::serve::ToEngineOptions(req));
    const grw::EngineResult direct = engine.Run();
    const auto& order = grw::PaperOrder(k);
    for (const int id : order) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    direct.merged.concentrations[id]);
      expected.emplace_back(buf);
    }
  }

  grw::Table table("serve throughput and tail latency (" +
                   std::to_string(requests) + " requests/client)");
  table.SetHeader({"clients", "QPS", "p50 ms", "p99 ms", "errors",
                   "retries"});
  std::vector<grw::bench::JsonMetric> metrics;
  bool identical = true;

  for (const int clients : client_counts) {
    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(clients));
    // uint8_t, not bool: vector<bool> packs bits, so concurrent writes
    // from different client threads would race on the shared bytes.
    // Errors/retries are per-client slots for the same reason.
    std::vector<uint8_t> client_ok(static_cast<size_t>(clients), 1);
    std::vector<uint64_t> client_errors(static_cast<size_t>(clients), 0);
    std::vector<uint64_t> client_retries(static_cast<size_t>(clients), 0);
    std::vector<std::thread> threads;
    grw::WallTimer sweep;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const auto slot = static_cast<size_t>(c);
        try {
          grw::serve::QueryClient client("127.0.0.1", server.port());
          for (int r = 0; r < requests; ++r) {
            grw::WallTimer timer;
            std::string response = client.RoundTrip(request_line);
            // Absorb load sheds by resending on the same connection —
            // the retry wait counts toward this request's latency, which
            // is what a tenant actually experiences under overload.
            for (int shed = 0; shed < 8; ++shed) {
              const double hint_ms = ShedHintMs(response);
              if (hint_ms < 0.0) break;
              ++client_retries[slot];
              std::this_thread::sleep_for(std::chrono::microseconds(
                  static_cast<int64_t>(hint_ms * 1000.0)));
              response = client.RoundTrip(request_line);
            }
            latencies[slot].push_back(timer.Seconds() * 1e3);
            const auto json = grw::serve::ParseJson(response);
            const grw::serve::JsonValue* ok =
                json ? json->Find("ok") : nullptr;
            if (ok == nullptr || !ok->IsTrue()) {
              ++client_errors[slot];
              if (check_identical) client_ok[slot] = 0;
              continue;
            }
            if (!check_identical) continue;
            const grw::serve::JsonValue* conc =
                json->Find("concentrations");
            if (conc == nullptr || conc->items.size() != expected.size()) {
              client_ok[slot] = 0;
              continue;
            }
            for (size_t i = 0; i < expected.size(); ++i) {
              if (conc->items[i].raw != expected[i]) {
                client_ok[slot] = 0;
              }
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[bench] client %d failed: %s\n", c,
                       e.what());
          ++client_errors[slot];
          client_ok[slot] = 0;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds = sweep.Seconds();

    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    uint64_t errors = 0;
    uint64_t retries = 0;
    for (int c = 0; c < clients; ++c) {
      if (client_ok[static_cast<size_t>(c)] == 0) identical = false;
      errors += client_errors[static_cast<size_t>(c)];
      retries += client_retries[static_cast<size_t>(c)];
    }
    const uint64_t total =
        static_cast<uint64_t>(clients) * static_cast<uint64_t>(requests);
    const double error_rate =
        total > 0 ? static_cast<double>(errors) / static_cast<double>(total)
                  : 0.0;
    const double qps =
        seconds > 0.0 ? static_cast<double>(all.size()) / seconds : 0.0;
    const double p50 = Percentile(all, 0.50);
    const double p99 = Percentile(all, 0.99);
    table.AddRow({grw::Table::Int(clients), grw::Table::Num(qps, 1),
                  grw::Table::Num(p50, 2), grw::Table::Num(p99, 2),
                  grw::Table::Int(static_cast<int64_t>(errors)),
                  grw::Table::Int(static_cast<int64_t>(retries))});
    const std::string suffix = "_c" + std::to_string(clients);
    metrics.push_back({"serve_qps" + suffix, qps, "req/s"});
    metrics.push_back({"serve_p50_ms" + suffix, p50, "ms"});
    metrics.push_back({"serve_p99_ms" + suffix, p99, "ms"});
    metrics.push_back({"serve_error_rate" + suffix, error_rate, "fraction"});
    metrics.push_back(
        {"serve_retries" + suffix, static_cast<double>(retries), "count"});
  }
  table.Print();

  server.Stop();
  grw::bench::MaybeWriteCsv(flags, table);
  grw::bench::MaybeWriteJson(flags, "bench_serve", context, metrics);

  if (check_identical) {
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: served responses diverged from the direct "
                   "engine run\n");
      return 1;
    }
    std::printf("check-identical: every served response matched the "
                "direct engine run byte for byte\n");
  }
  return 0;
}
