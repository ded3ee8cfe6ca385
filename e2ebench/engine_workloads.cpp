// The three engine workloads: repeated estimates to a target NRMSE over
// in-memory, crawl and sharded access.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "util/rng.h"
#include "workloads.h"

namespace e2e {

std::vector<Workload> Workloads(bool smoke) {
  // Targets are set so one answer takes a fraction of a second to a
  // second of wall time on the full fixture: a run then sees 10-50
  // answers, enough for a median that holds still between seeds.
  // max_steps sits about 3x above the typical stop, so answers reach
  // their target while the round size (max_steps / 32) stays small next
  // to the stop point.
  std::vector<Workload> w = {
      {"inmem-srw2css", Access::kGraph,
       "ESTIMATE graph=g k=4 d=2 css=1 chains=16 steps=600000 "
       "target_nrmse=0.005",
       0.0, 1'000'000, "ESTIMATE graph=g k=4 d=2 css=1 steps=20"},
      {"crawl-psrw3", Access::kCrawl,
       "ESTIMATE graph=g k=4 d=3 chains=16 crawl=1 cache=4096 "
       "steps=12800 target_nrmse=0.05",
       0.0, 20'000,
       "ESTIMATE graph=g k=4 d=3 crawl=1 cache=4096 steps=20"},
      {"sharded-half", Access::kSharded,
       "ESTIMATE graph=g k=4 d=2 css=1 chains=16 steps=10240 "
       "target_nrmse=0.04",
       0.5, 1'000'000, "ESTIMATE graph=g k=4 d=2 css=1 steps=20"},
      {"serve-mix", Access::kServe, "ESTIMATE graph=g k=3 steps=2000", 0.0,
       1'000'000, "ESTIMATE graph=g k=3 steps=2000"},
  };
  if (smoke) {
    // The small fixture and a few seconds per workload: every code path
    // and every correctness check, none of the statistical weight.
    w[0].request =
        "ESTIMATE graph=g k=4 d=2 css=1 chains=16 steps=64000 "
        "target_nrmse=0.03";
    w[1].request =
        "ESTIMATE graph=g k=4 d=3 chains=16 crawl=1 cache=1024 steps=3200 "
        "target_nrmse=0.15";
    w[2].request =
        "ESTIMATE graph=g k=4 d=2 css=1 chains=16 steps=3200 "
        "target_nrmse=0.12";
    for (Workload& x : w) x.replay_steps /= 50;
  }
  return w;
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

uint64_t AnswerSeed(uint64_t run_seed, uint64_t i) {
  return grw::DeriveSeed(run_seed, i) >> 1;
}

std::string AnswerLine(const Workload& w, uint64_t run_seed, uint64_t i) {
  return w.request + " seed=" + std::to_string(AnswerSeed(run_seed, i));
}

grw::serve::EstimateRequest ParseEstimate(const std::string& line) {
  const grw::serve::ParsedRequest parsed =
      grw::serve::ParseRequestLine(line, grw::serve::RequestLimits{});
  if (!parsed.request ||
      parsed.request->verb != grw::serve::Request::Verb::kEstimate) {
    throw std::invalid_argument("bad request line '" + line +
                                "': " + parsed.error);
  }
  return parsed.request->estimate;
}

grw::EngineOptions AnswerOptions(const grw::serve::EstimateRequest& req) {
  grw::EngineOptions options = grw::serve::ToEngineOptions(req);
  options.threads = kThreads;
  return options;
}

grw::EngineResult RunEngine(const grw::GraphSource& source,
                            const grw::serve::EstimateRequest& req,
                            grw::EngineOptions options) {
  grw::EstimationEngine engine =
      source.sharded()
          ? grw::EstimationEngine(source.shards(), req.config,
                                  std::move(options))
          : grw::EstimationEngine(source.graph(), req.config,
                                  std::move(options));
  return engine.Run();
}

bool SameEstimate(const grw::EstimateResult& a,
                  const grw::EstimateResult& b) {
  return a.weights == b.weights && a.samples == b.samples &&
         a.steps == b.steps && a.valid_samples == b.valid_samples;
}

grw::GraphSource OpenForWorkload(const Workload& w, const Fixture& f) {
  grw::OpenOptions open;
  if (w.access == Access::kSharded) {
    const grw::ShardManifest manifest =
        grw::LoadShardManifest(f.shards_path);
    open.resident_budget_bytes = static_cast<uint64_t>(
        w.resident_fraction *
        static_cast<double>(manifest.TotalShardBytes()));
    return grw::GraphSource::Open(f.shards_path, open);
  }
  return grw::GraphSource::Open(f.grwb_path, open);
}

namespace {

// Set-ups are repeated for at least this long (and at least kSetupReps
// times); the reported set-up time is their median.
constexpr double kSetupSeconds = 0.5;
constexpr int kSetupReps = 5;
// Answers per run at least, however long they take.
constexpr int kMinAnswers = 5;
// Accuracy gate: no type with an exact concentration of at least
// kGateFloor may be off by more than kErrorGateFactor times the requested
// NRMSE. Generous on purpose: it catches a broken estimator, not an
// unlucky seed (the batch-means error bar is known to run small on short
// PSRW chains).
constexpr double kErrorGateFactor = 5.0;
constexpr double kGateFloor = 0.05;

// Largest |estimate - exact| / exact over types whose exact concentration
// is at least `floor`.
double MaxRelativeError(const std::vector<double>& estimate,
                        const std::vector<double>& exact, double floor) {
  if (estimate.size() != exact.size()) return INFINITY;
  double worst = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    if (exact[i] < floor) continue;
    worst = std::max(worst, std::fabs(estimate[i] - exact[i]) / exact[i]);
  }
  return worst;
}

}  // namespace

std::vector<double> MeasureSetups(const std::function<void()>& setup,
                                  const std::function<void()>& teardown) {
  std::vector<double> cpu_s;
  const int64_t start = NowNs();
  while (cpu_s.size() < static_cast<size_t>(kSetupReps) ||
         NowNs() - start < static_cast<int64_t>(kSetupSeconds * 1e9)) {
    teardown();
    const double c0 = ProcessCpuSeconds();
    setup();
    cpu_s.push_back(ProcessCpuSeconds() - c0);
  }
  return cpu_s;
}

void PrintSummary(const std::string& name, const Summary& s,
                  const std::string& unit) {
  std::printf("%-22s %14.6g %-8s n=%zu median=%.6g q1=%.6g q3=%.6g\n",
              name.c_str(), s.median, unit.c_str(), s.n, s.median, s.q1,
              s.q3);
}

void PrintValue(const std::string& name, double value,
                const std::string& unit, const std::string& note) {
  std::printf("%-22s %14.6g %-8s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

void RunEngineWorkload(const Workload& w, const Fixture& f,
                       const RunOptions& opt, Report& report) {
  grw::GraphSource source;
  const std::vector<double> setup_cpu =
      MeasureSetups([&] { source = OpenForWorkload(w, f); },
                    [&] { source = grw::GraphSource(); });

  // Untimed warm-up: faults the graph's pages in and sizes every
  // allocator pool, as a user's second query on an open graph would.
  const grw::serve::EstimateRequest first_req =
      ParseEstimate(AnswerLine(w, opt.seed, 0));
  const grw::EngineResult warm =
      RunEngine(source, first_req, AnswerOptions(first_req));

  std::vector<double> answer_cpu_ms;
  std::vector<double> answer_wall_ms;
  std::vector<double> rel_errors;
  std::vector<double> queries;
  uint64_t steps = 0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  for (int i = 0; wall_s < opt.seconds || i < kMinAnswers; ++i) {
    const grw::serve::EstimateRequest req =
        ParseEstimate(AnswerLine(w, opt.seed, i));
    const int64_t t0 = NowNs();
    const double c0 = ProcessCpuSeconds();
    const grw::EngineResult res = RunEngine(source, req, AnswerOptions(req));
    const double cpu = ProcessCpuSeconds() - c0;
    const double wall = static_cast<double>(NowNs() - t0) * 1e-9;
    answer_cpu_ms.push_back(cpu * 1e3);
    answer_wall_ms.push_back(wall * 1e3);
    cpu_s += cpu;
    wall_s += wall;
    steps += res.merged.steps;
    queries.push_back(static_cast<double>(res.access.distinct_fetches));
    const double err =
        MaxRelativeError(res.merged.concentrations, f.exact4, kGateFloor);
    rel_errors.push_back(err);
    report.Check(err <= kErrorGateFactor * req.target_nrmse,
                 w.name + " answer " + std::to_string(i) +
                     ": relative error " + std::to_string(err) +
                     " against the exact concentrations");
    if (i == 0) {
      report.Check(SameEstimate(res.merged, warm.merged),
                   w.name + ": a repeated answer is not bit-identical");
    }
  }
  if (w.access == Access::kSharded) {
    // Out-of-core storage must not change the answer.
    const grw::GraphSource mono = grw::GraphSource::Open(f.grwb_path);
    const grw::EngineResult ref =
        RunEngine(mono, first_req, AnswerOptions(first_req));
    report.Check(SameEstimate(ref.merged, warm.merged),
                 "sharded-half: sharded answer differs from monolithic");
  }

  const Summary setup = Summarize(setup_cpu);
  const Summary answer = Summarize(answer_cpu_ms);
  const double steps_per_cpu_s = static_cast<double>(steps) / cpu_s;
  PrintSummary("setup_s", setup, "s");
  PrintSummary("answer_cpu_ms", answer, "ms");
  PrintValue("steps_per_cpu_s", steps_per_cpu_s, "steps/s",
             "steps=" + std::to_string(steps));
  PrintSummary("answer_ms (wall)", Summarize(answer_wall_ms), "ms");
  PrintValue("steps_per_s (wall)", static_cast<double>(steps) / wall_s,
             "steps/s", "");
  PrintSummary("rel_err_vs_exact", Summarize(rel_errors), "ratio");
  if (w.access == Access::kCrawl) {
    PrintSummary("queries_to_target", Summarize(queries), "count");
  }

  report.Add("setup_s", setup.median, "s");
  report.Add("answer_cpu_ms", answer.median, "ms");
  report.Add("steps_per_cpu_s", steps_per_cpu_s, "steps/s");
  report.Add("peak_rss_mib", PeakRssMib(), "MiB");
}

}  // namespace e2e
