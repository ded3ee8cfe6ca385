// Access-layer bench: what does restricted (crawl) access cost, and what
// does the query budget buy?
//
// Three sections, mirroring the claims the access layer makes:
//
//   identity      full access vs crawl access with an unbounded cache must
//                 produce bit-identical merged estimates at {1, 2, 8}
//                 threads — the policy moves cost, never results. This is
//                 the CI gate (--check-identical exits 1 on any mismatch).
//   NRMSE/budget  accuracy as a function of the distinct-query budget B:
//                 for each B, independent budget-stopped crawls are scored
//                 against cached exact concentrations (mean NRMSE over
//                 non-negligible types). The paper's Section 6 economics —
//                 accuracy per API call — as a reproducible curve.
//   cache sweep   walk throughput and hit rate as a function of the LRU
//                 capacity at a fixed step count, plus the *effective*
//                 rate once each cache miss is charged --latency-us of
//                 simulated API latency. Shows where the cache stops
//                 paying (capacity ~ working set of the walk).
//
// Flags (besides the bench_common ones --graph/--scale/--csv/--json):
//   --k K --d D --css 0|1 --nb 0|1   estimator config (default SRW2CSS k=4)
//   --sims N            crawls per budget point (default 5)
//   --budgets a,b,c     distinct-query ladder (default 100,...,1200;
//                       points above half the node count are skipped)
//   --caches a,b,c      LRU capacity ladder, 0 = unbounded
//   --steps N           steps for the cache sweep (default 200000)
//   --latency-us L      simulated per-fetch latency (default 200)
//   --check-identical   CI gate: exit 1 unless full == crawl(inf) at
//                       {1,2,8} threads
//
// Writes the BENCH_ACCESS.json perf-trajectory file with --json.

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/estimator.h"
#include "engine/engine.h"
#include "eval/ground_truth.h"
#include "graph/access.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

// "a,b,c" -> {a, b, c}; falls back to `defaults` when the flag is absent.
std::vector<uint64_t> ParseLadder(const grw::Flags& flags,
                                  const std::string& name,
                                  std::vector<uint64_t> defaults) {
  const std::string raw = flags.GetString(name, "");
  if (raw.empty()) return defaults;
  std::vector<uint64_t> out;
  size_t pos = 0;
  while (pos < raw.size()) {
    const size_t comma = raw.find(',', pos);
    const std::string item =
        raw.substr(pos, comma == std::string::npos ? comma : comma - pos);
    out.push_back(std::strtoull(item.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// Mean NRMSE over graphlet types whose exact concentration is at least
// `floor` (rare types are shot-noise-dominated at crawl budgets).
double MeanNrmse(const std::vector<std::vector<double>>& runs,
                 const std::vector<double>& truth, double floor) {
  double sum = 0.0;
  int types = 0;
  for (size_t t = 0; t < truth.size(); ++t) {
    if (truth[t] < floor) continue;
    std::vector<double> estimates;
    estimates.reserve(runs.size());
    for (const auto& run : runs) estimates.push_back(run[t]);
    const double nrmse = grw::Nrmse(estimates, truth[t]);
    if (std::isfinite(nrmse)) {
      sum += nrmse;
      ++types;
    }
  }
  return types > 0 ? sum / types : std::numeric_limits<double>::quiet_NaN();
}

bool SameEstimate(const grw::EstimateResult& a,
                  const grw::EstimateResult& b) {
  if (a.steps != b.steps || a.weights.size() != b.weights.size()) {
    return false;
  }
  for (size_t i = 0; i < a.weights.size(); ++i) {
    // Exact comparison on purpose: the access layer must not perturb a
    // single floating-point operation of the full-access path.
    if (a.weights[i] != b.weights[i]) return false;
    if (a.concentrations[i] != b.concentrations[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);

  grw::EstimatorConfig config;
  config.k = flags.GetInt32("k", 4);
  config.d = flags.GetInt32("d", 2);
  config.css = flags.GetBool("css", true);
  config.nb = flags.GetBool("nb", false);
  const int sims = flags.GetInt32("sims", 5);
  const uint64_t sweep_steps = flags.GetUInt64("steps", 200000);
  const double latency_us = flags.GetDouble("latency-us", 200.0);
  const bool check_identical = flags.GetBool("check-identical");

  const auto graphs =
      grw::bench::LoadBenchGraphs(flags, grw::DatasetTier::kSmall, 1.0);
  const grw::bench::BenchGraph& bg = graphs.front();
  const grw::Graph& g = bg.graph;
  std::printf("[bench] %s: %s, %s\n", bg.name.c_str(),
              g.Summary().c_str(), config.Name().c_str());

  std::vector<grw::bench::JsonMetric> metrics;

  // ---------------------------------------------------------- identity --
  bool identical = true;
  {
    grw::EngineOptions base;
    base.chains = 4;
    base.max_steps = 20000;
    base.base_seed = 0x5eed;
    base.round_steps = 2048;
    const grw::EngineResult full =
        grw::EstimationEngine(g, config, base).Run();
    for (unsigned threads : {1u, 2u, 8u}) {
      grw::EngineOptions crawl_options = base;
      crawl_options.threads = threads;
      crawl_options.crawl.emplace();
      const grw::EngineResult crawled =
          grw::EstimationEngine(g, config, crawl_options).Run();
      const bool same = SameEstimate(full.merged, crawled.merged);
      identical = identical && same;
      std::printf("identity: full vs crawl(inf cache) @ %u threads: %s\n",
                  threads, same ? "bit-identical" : "MISMATCH");
    }
  }
  metrics.push_back({"identical_full_vs_crawl", identical ? 1.0 : 0.0,
                     "bool"});

  // ------------------------------------------------------ NRMSE/budget --
  const std::vector<uint64_t> budgets = ParseLadder(
      flags, "budgets", {100, 200, 400, 800, 1200});
  const std::vector<double> truth =
      grw::CachedExactConcentrations(g, config.k, bg.cache_key);

  grw::Table nrmse_table("NRMSE vs distinct-query budget (" +
                         config.Name() + ", " + std::to_string(sims) +
                         " crawls/point)");
  nrmse_table.SetHeader(
      {"budget B", "mean NRMSE", "steps/crawl", "hit rate"});
  // A budget close to the node count cannot be exhausted (distinct
  // fetches are bounded by reachable nodes) and the run would fall
  // through to the step safety net; skip those points loudly instead of
  // reporting a mislabeled curve.
  const uint64_t max_budget = g.NumNodes() / 2;
  for (const uint64_t budget : budgets) {
    if (budget > max_budget) {
      std::printf("skipping budget %" PRIu64 ": exceeds half the node "
                  "count (%u), cannot be spent by a crawl\n",
                  budget, g.NumNodes());
      continue;
    }
    std::vector<std::vector<double>> runs;
    double mean_steps = 0.0;
    double mean_hit = 0.0;
    for (int s = 0; s < sims; ++s) {
      grw::CrawlAccess::Options opt;
      opt.query_budget = budget;
      grw::CrawlAccess crawl(g, opt);
      grw::GraphletEstimatorT<grw::CrawlAccess> estimator(crawl, config);
      estimator.Reset(0xace + 31 * s);
      // The budget is the stopping rule; the step cap is a safety net.
      estimator.Run(2'000'000);
      runs.push_back(estimator.Result().concentrations);
      mean_steps += static_cast<double>(estimator.Steps()) / sims;
      mean_hit += crawl.stats().HitRate() / sims;
    }
    const double nrmse = MeanNrmse(runs, truth, 1e-3);
    nrmse_table.AddRow({grw::Table::Int(static_cast<long long>(budget)),
                        grw::Table::Num(nrmse, 4),
                        grw::Table::Num(mean_steps, 0),
                        grw::Table::Num(mean_hit, 3)});
    metrics.push_back({"nrmse_q" + std::to_string(budget), nrmse,
                       "nrmse"});
    metrics.push_back({"steps_q" + std::to_string(budget), mean_steps,
                       "steps"});
  }
  nrmse_table.Print();

  // -------------------------------------------------------- cache sweep --
  const std::vector<uint64_t> caches =
      ParseLadder(flags, "caches", {64, 256, 1024, 4096, 0});
  grw::Table cache_table(
      "walk throughput vs LRU capacity (" + std::to_string(sweep_steps) +
      " steps, " + grw::Table::Num(latency_us, 0) + "us simulated/fetch)");
  cache_table.SetHeader({"cache size", "steps/s", "hit rate", "fetches",
                         "effective steps/s (latency)"});
  for (const uint64_t cache : caches) {
    grw::CrawlAccess::Options opt;
    opt.cache_entries = cache;
    opt.latency_us = latency_us;
    grw::CrawlAccess crawl(g, opt);
    grw::GraphletEstimatorT<grw::CrawlAccess> estimator(crawl, config);
    estimator.Reset(0xcafe);
    grw::WallTimer timer;
    estimator.Run(sweep_steps);
    const double seconds = timer.Seconds();
    const grw::CrawlStats& stats = crawl.stats();
    const double steps_per_s =
        seconds > 0.0 ? static_cast<double>(sweep_steps) / seconds : 0.0;
    const double effective_seconds =
        seconds + stats.simulated_latency_us / 1e6;
    const double effective_steps_per_s =
        effective_seconds > 0.0
            ? static_cast<double>(sweep_steps) / effective_seconds
            : 0.0;
    const std::string label =
        cache == 0 ? "inf" : std::to_string(cache);
    cache_table.AddRow(
        {label, grw::Table::Num(steps_per_s / 1e6, 2) + "M",
         grw::Table::Num(stats.HitRate(), 4),
         grw::Table::Int(static_cast<long long>(stats.fetches)),
         grw::Table::Num(effective_steps_per_s / 1e3, 1) + "K"});
    metrics.push_back({"steps_per_s_cache_" + label, steps_per_s,
                       "steps/s"});
    metrics.push_back({"hit_rate_cache_" + label, stats.HitRate(), "rate"});
    metrics.push_back({"effective_steps_per_s_cache_" + label,
                       effective_steps_per_s, "steps/s"});
  }
  cache_table.Print();

  grw::bench::MaybeWriteCsv(flags, cache_table);
  grw::bench::MaybeWriteJson(flags, "bench_access",
                             bg.name + ": " + g.Summary() + ", " +
                                 config.Name(),
                             metrics);

  if (check_identical && !identical) {
    std::fprintf(stderr,
                 "FAIL: crawl-access estimates diverged from full access\n");
    return 1;
  }
  if (check_identical) {
    std::printf("CHECK PASSED: full == crawl(inf cache) at 1/2/8 threads\n");
  }
  return 0;
}
