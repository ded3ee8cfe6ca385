// serve-mix: many short estimates sharing one in-process grw_serve stack,
// driven over loopback TCP by a 4-connection load generator — first in a
// closed loop (capacity and CPU cost per request), then in an open loop
// at a fixed Poisson rate (latency as independent users see it).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "serve/client.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {

namespace {

// Connections (one per generator thread); also the scheduler's workers.
constexpr int kConnections = 4;
// Open-loop arrival rate, requests per second: about 40% of the
// closed-loop capacity this stack had on a quiet 4-core host when the
// benchmark was defined (~370 req/s), so queueing is light but visible.
// Changing it changes the workload: compare only runs made with one value.
constexpr double kOpenLoopRate = 150.0;
// A request is on time if answered within this many ms of its due time.
constexpr double kSloMs = 50.0;

grw::serve::ServerOptions LoopbackServer() {
  grw::serve::ServerOptions options;
  options.scheduler.workers = kConnections;
  return options;
}

// Runs a load-generator thread body; a connection that cannot be opened
// counts as one failed request instead of ending the process.
template <class Body>
void GuardedClient(Body&& body, uint64_t& failed) {
  try {
    body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve-mix: client failed: %s\n", e.what());
    ++failed;
  }
}

std::string TailText(const std::vector<double>& v, double p) {
  const std::optional<double> tail = TailPercentile(v, p);
  return tail ? std::to_string(*tail) : "(fewer than 10 beyond)";
}

}  // namespace

ServeMix MakeServeMix(uint64_t run_seed) {
  ServeMix mix;
  for (uint64_t i = 0; i < 8; ++i) {
    mix.lines.push_back("ESTIMATE graph=g k=3 steps=2000 seed=" +
                        std::to_string(AnswerSeed(run_seed, 1000 + i)));
  }
  for (uint64_t i = 0; i < 8; ++i) {
    mix.lines.push_back("ESTIMATE graph=g k=4 steps=20000 chains=2 seed=" +
                        std::to_string(AnswerSeed(run_seed, 2000 + i)));
  }
  return mix;
}

size_t ServeMix::Draw(uint64_t random) const {
  const size_t half = lines.size() / 2;
  const bool medium = random % 10 >= 8;  // 20% medium
  return (medium ? half : 0) + (random / 10) % half;
}

std::string WithoutTiming(const std::string& response) {
  const std::string key = ", \"seconds\": ";
  const size_t at = response.find(key);
  if (at == std::string::npos) return response;
  const size_t end = response.find(',', at + key.size());
  std::string out = response;
  out.erase(at, (end == std::string::npos ? out.size() : end) - at);
  return out;
}

ServeStack::ServeStack(const Fixture& f)
    : server_(&registry_, LoopbackServer()) {
  registry_.Register("g", f.grwb_path);
  server_.Start();
}

ExpectedAnswers DirectAnswers(const grw::GraphSource& source,
                              const std::vector<std::string>& lines) {
  ExpectedAnswers expected;
  for (const std::string& line : lines) {
    const grw::serve::EstimateRequest req = ParseEstimate(line);
    const grw::EngineResult result =
        RunEngine(source, req, grw::serve::ToEngineOptions(req));
    expected.response.push_back(
        WithoutTiming(grw::serve::EstimateResponse(req, result)));
    expected.steps.push_back(result.merged.steps);
  }
  return expected;
}

void RunServeWorkload(const Workload&, const Fixture& f,
                      const RunOptions& opt, Report& report) {
  std::unique_ptr<ServeStack> stack;
  const std::vector<double> setup_cpu =
      MeasureSetups([&] { stack = std::make_unique<ServeStack>(f); },
                    [&] { stack.reset(); });
  const int port = stack->server().port();

  const ServeMix mix = MakeServeMix(opt.seed);
  const ExpectedAnswers expected =
      DirectAnswers(*stack->registry().FindSource("g"), mix.lines);

  // One request: round trip, byte comparison against the direct run.
  const auto serve_one = [&](grw::serve::QueryClient& client, size_t idx) {
    try {
      const std::string response = client.RoundTrip(mix.lines[idx]);
      return WithoutTiming(response) == expected.response[idx];
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve-mix: request failed: %s\n", e.what());
      return false;
    }
  };

  // Phase 1 — closed loop: each connection sends its next request as
  // soon as the previous answer arrives. The service's CPU time is the
  // process's minus what the generator threads spent.
  const double closed_s = opt.seconds / 2.0;
  std::vector<uint64_t> steps(kConnections, 0);
  std::vector<uint64_t> done(kConnections, 0);
  std::vector<uint64_t> failed(kConnections, 0);
  std::vector<double> client_cpu(kConnections, 0.0);
  double closed_wall = 0.0;
  double closed_cpu = 0.0;
  {
    std::vector<std::thread> threads;
    const int64_t start = NowNs();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t end = start + static_cast<int64_t>(closed_s * 1e9);
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        const double thread_cpu0 = ThreadCpuSeconds();
        GuardedClient(
            [&] {
              grw::Rng rng(grw::DeriveSeed(opt.seed, 0xC105ED + t));
              grw::serve::QueryClient client("127.0.0.1", port);
              while (NowNs() < end) {
                const size_t idx = mix.Draw(rng());
                if (serve_one(client, idx)) {
                  steps[t] += expected.steps[idx];
                } else {
                  ++failed[t];
                }
                ++done[t];
              }
            },
            failed[t]);
        client_cpu[t] = ThreadCpuSeconds() - thread_cpu0;
      });
    }
    for (std::thread& th : threads) th.join();
    closed_wall = static_cast<double>(NowNs() - start) * 1e-9;
    closed_cpu = ProcessCpuSeconds() - cpu0;
  }
  uint64_t served_steps = 0;
  uint64_t closed_requests = 0;
  for (int t = 0; t < kConnections; ++t) {
    served_steps += steps[t];
    closed_requests += done[t];
    closed_cpu -= client_cpu[t];
    report.Count(done[t], failed[t]);
  }

  // Phase 2 — open loop: Poisson arrivals at kOpenLoopRate, drawn from
  // the seed. Each connection takes the next due request when it is
  // free; latency runs from the due time, so a stall also charges the
  // requests queued behind it.
  const double open_s = opt.seconds - closed_s;
  std::vector<double> due_s;
  std::vector<size_t> cls;
  {
    grw::Rng rng(grw::DeriveSeed(opt.seed, 0x09E7));
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.UniformReal()) / kOpenLoopRate;
      if (t >= open_s) break;
      due_s.push_back(t);
      cls.push_back(mix.Draw(rng()));
    }
  }
  std::vector<double> latency_ms(due_s.size(), 0.0);
  std::vector<double> late_ms(due_s.size(), 0.0);
  std::vector<uint8_t> ok(due_s.size(), 0);
  {
    std::atomic<size_t> next{0};
    std::vector<uint64_t> client_failed(kConnections, 0);
    std::vector<std::thread> threads;
    const int64_t start = NowNs() + 20'000'000;  // connect first
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        GuardedClient(
            [&] {
              grw::serve::QueryClient client("127.0.0.1", port);
              for (size_t i = next++; i < due_s.size(); i = next++) {
                const int64_t due =
                    start + static_cast<int64_t>(due_s[i] * 1e9);
                while (NowNs() < due) {
                  std::this_thread::sleep_for(std::chrono::nanoseconds(
                      std::min<int64_t>(due - NowNs(), 1'000'000)));
                }
                late_ms[i] = static_cast<double>(NowNs() - due) * 1e-6;
                ok[i] = serve_one(client, cls[i]) ? 1 : 0;
                latency_ms[i] = static_cast<double>(NowNs() - due) * 1e-6;
              }
            },
            client_failed[t]);
      });
    }
    for (std::thread& th : threads) th.join();
    for (const uint64_t n : client_failed) report.Count(n, n);
  }
  uint64_t open_failed = 0;
  uint64_t on_time = 0;
  for (size_t i = 0; i < ok.size(); ++i) {
    if (ok[i] == 0) ++open_failed;
    if (ok[i] != 0 && latency_ms[i] <= kSloMs) ++on_time;
  }
  report.Count(ok.size(), open_failed);
  const grw::serve::ServeScheduler::Stats stats = stack->server().stats();
  report.Check(stats.rejected_queue == 0,
               "serve-mix: the scheduler shed " +
                   std::to_string(stats.rejected_queue) + " requests");
  stack.reset();

  const Summary setup = Summarize(setup_cpu);
  const double answer_cpu_ms =
      closed_cpu * 1e3 / static_cast<double>(closed_requests);
  const double steps_per_cpu_s =
      static_cast<double>(served_steps) / closed_cpu;
  PrintSummary("setup_s", setup, "s");
  PrintValue("answer_cpu_ms", answer_cpu_ms, "ms",
             "mean over " + std::to_string(closed_requests) +
                 " closed-loop requests");
  PrintValue("steps_per_cpu_s", steps_per_cpu_s, "steps/s", "");
  PrintValue("serve_capacity_qps (wall)",
             static_cast<double>(closed_requests) / closed_wall, "req/s",
             "closed loop, " + std::to_string(kConnections) + " connections");
  PrintSummary("serve_latency_ms (wall)", Summarize(latency_ms), "ms");
  std::printf("serve_p99_ms (wall)    %s ms\n",
              TailText(latency_ms, 0.99).c_str());
  std::printf("serve_p999_ms (wall)   %s ms\n",
              TailText(latency_ms, 0.999).c_str());
  std::printf("generator_late_p99_ms  %s ms\n",
              TailText(late_ms, 0.99).c_str());
  PrintValue("serve_slo_attainment",
             ok.empty() ? 0.0
                        : static_cast<double>(on_time) /
                              static_cast<double>(ok.size()),
             "ratio",
             "answered ok within " + std::to_string(kSloMs) +
                 " ms of due, open loop at " +
                 std::to_string(kOpenLoopRate) + " req/s");

  report.Add("setup_s", setup.median, "s");
  report.Add("answer_cpu_ms", answer_cpu_ms, "ms");
  report.Add("steps_per_cpu_s", steps_per_cpu_s, "steps/s");
  report.Add("peak_rss_mib", PeakRssMib(), "MiB");
}

}  // namespace e2e
