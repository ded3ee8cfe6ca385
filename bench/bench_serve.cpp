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
//   --reps N         repeat the whole client sweep N times (default 1)
//   --n / --param    fixture Holme-Kim size (default 5000 x 4)
//   --steps N        walk steps per request (default 20000)
//   --k K            graphlet size per request (default 4)
//   --chains C       chains per request (default 2)
//   --workers W      scheduler workers (default 4)
//   --check-identical  fail unless every response matches a direct run
//   --csv / --json   table mirror / BENCH_SERVE.json metrics
//
// Metrics (per client count C, each the median over reps):
// serve_qps_c{C}, serve_p50_ms_c{C}, serve_p99_ms_c{C} — the
// perf-trajectory answer to "what does another concurrent tenant
// cost?" — plus serve_error_rate_c{C} (fraction of all reps' requests
// whose final answer was an error or a transport failure) and
// serve_retries_c{C} (RETRY_AFTER load sheds absorbed by resending on
// the same connection). In a clean run both are 0; chaos builds with
// GRW_FAULT_SPEC set make them visible in the perf trajectory. When the
// sweep includes 1 client, serve_qps_ratio_c{C}_c1 is the median over
// reps of QPS at C clients over QPS at 1 client in the same rep, with
// its quartiles as serve_qps_ratio_c{C}_c1_q1 / _q3.

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

// One client count's sweep: every request's wall time, the sweep's
// wall time, and its failures.
struct Sweep {
  std::vector<double> latencies_ms;
  double seconds = 0.0;
  uint64_t errors = 0;
  uint64_t retries = 0;
  bool identical = true;  // every response matched `expected`
};

// `clients` clients each hold one connection and stream `requests`
// request lines through it back-to-back. With check_identical every
// answer must carry exactly the `expected` concentrations.
Sweep RunSweep(int clients, int requests, int port,
               const std::string& request_line,
               const std::vector<std::string>& expected,
               bool check_identical) {
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  // uint8_t, not bool: vector<bool> packs bits, so concurrent writes
  // from different client threads would race on the shared bytes.
  // Errors/retries are per-client slots for the same reason.
  std::vector<uint8_t> client_ok(static_cast<size_t>(clients), 1);
  std::vector<uint64_t> client_errors(static_cast<size_t>(clients), 0);
  std::vector<uint64_t> client_retries(static_cast<size_t>(clients), 0);
  std::vector<std::thread> threads;
  grw::WallTimer wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto slot = static_cast<size_t>(c);
      try {
        grw::serve::QueryClient client("127.0.0.1", port);
        for (int r = 0; r < requests; ++r) {
          grw::WallTimer timer;
          std::string response = client.RoundTrip(request_line);
          // Absorb load sheds by resending on the same connection — the
          // retry wait counts toward this request's latency, which is
          // what a tenant actually experiences under overload.
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
          const grw::serve::JsonValue* ok = json ? json->Find("ok") : nullptr;
          if (ok == nullptr || !ok->IsTrue()) {
            ++client_errors[slot];
            if (check_identical) client_ok[slot] = 0;
            continue;
          }
          if (!check_identical) continue;
          const grw::serve::JsonValue* conc = json->Find("concentrations");
          if (conc == nullptr || conc->items.size() != expected.size()) {
            client_ok[slot] = 0;
            continue;
          }
          for (size_t i = 0; i < expected.size(); ++i) {
            if (conc->items[i].raw != expected[i]) client_ok[slot] = 0;
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[bench] client %d failed: %s\n", c, e.what());
        ++client_errors[slot];
        client_ok[slot] = 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Sweep sweep;
  sweep.seconds = wall.Seconds();
  for (size_t c = 0; c < static_cast<size_t>(clients); ++c) {
    sweep.latencies_ms.insert(sweep.latencies_ms.end(), latencies[c].begin(),
                              latencies[c].end());
    sweep.identical = sweep.identical && client_ok[c] != 0;
    sweep.errors += client_errors[c];
    sweep.retries += client_retries[c];
  }
  return sweep;
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
  const auto reps =
      static_cast<int>(flags.GetIntInRange("reps", 1, 1, 1000));

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

  // One point per client count; each metric holds one value per rep.
  struct Point {
    std::vector<double> qps, p50, p99, retries;
    uint64_t errors = 0;
    uint64_t requests = 0;
  };
  std::vector<Point> points(client_counts.size());
  bool identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < client_counts.size(); ++i) {
      const int clients = client_counts[i];
      const Sweep sweep = RunSweep(clients, requests, server.port(),
                                   request_line, expected, check_identical);
      Point& point = points[i];
      const auto answered = static_cast<double>(sweep.latencies_ms.size());
      point.qps.push_back(sweep.seconds > 0.0 ? answered / sweep.seconds
                                              : 0.0);
      point.p50.push_back(Percentile(sweep.latencies_ms, 0.50));
      point.p99.push_back(Percentile(sweep.latencies_ms, 0.99));
      point.retries.push_back(static_cast<double>(sweep.retries));
      point.errors += sweep.errors;
      point.requests +=
          static_cast<uint64_t>(clients) * static_cast<uint64_t>(requests);
      identical = identical && sweep.identical;
    }
  }

  grw::Table table("serve throughput and tail latency (" +
                   std::to_string(requests) + " requests/client, median of " +
                   std::to_string(reps) + " rep(s))");
  table.SetHeader({"clients", "QPS", "p50 ms", "p99 ms", "errors",
                   "retries"});
  std::vector<grw::bench::JsonMetric> metrics;
  using grw::bench::Quantile;
  for (size_t i = 0; i < client_counts.size(); ++i) {
    const Point& point = points[i];
    // Errors are pooled over every rep, so one failing rep still shows.
    const double error_rate =
        point.requests > 0 ? static_cast<double>(point.errors) /
                                 static_cast<double>(point.requests)
                           : 0.0;
    const double qps = Quantile(point.qps, 0.5);
    const double p50 = Quantile(point.p50, 0.5);
    const double p99 = Quantile(point.p99, 0.5);
    const double retries = Quantile(point.retries, 0.5);
    table.AddRow({grw::Table::Int(client_counts[i]), grw::Table::Num(qps, 1),
                  grw::Table::Num(p50, 2), grw::Table::Num(p99, 2),
                  grw::Table::Int(static_cast<int64_t>(point.errors)),
                  grw::Table::Num(retries, 1)});
    const std::string suffix = "_c" + std::to_string(client_counts[i]);
    metrics.push_back({"serve_qps" + suffix, qps, "req/s"});
    metrics.push_back({"serve_p50_ms" + suffix, p50, "ms"});
    metrics.push_back({"serve_p99_ms" + suffix, p99, "ms"});
    metrics.push_back({"serve_error_rate" + suffix, error_rate, "fraction"});
    metrics.push_back({"serve_retries" + suffix, retries, "count"});
  }

  // QPS at C clients over QPS at 1 client, paired within each rep (the
  // two sweeps ran back to back, so they share the host's phase).
  const auto one = std::find(client_counts.begin(), client_counts.end(), 1);
  if (one != client_counts.end()) {
    const Point& base =
        points[static_cast<size_t>(one - client_counts.begin())];
    for (size_t i = 0; i < client_counts.size(); ++i) {
      if (client_counts[i] == 1) continue;
      std::vector<double> ratios;
      for (int rep = 0; rep < reps; ++rep) {
        ratios.push_back(base.qps[rep] > 0.0
                             ? points[i].qps[rep] / base.qps[rep]
                             : 0.0);
      }
      const std::string name =
          "serve_qps_ratio_c" + std::to_string(client_counts[i]) + "_c1";
      const double median = Quantile(ratios, 0.5);
      const double q1 = Quantile(ratios, 0.25);
      const double q3 = Quantile(ratios, 0.75);
      std::printf("%d-client / 1-client QPS: %.3f (q1 %.3f, q3 %.3f over "
                  "%d rep(s))\n",
                  client_counts[i], median, q1, q3, reps);
      metrics.push_back({name, median, "x"});
      metrics.push_back({name + "_q1", q1, "x"});
      metrics.push_back({name + "_q3", q3, "x"});
    }
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
