// Out-of-core bench: estimation accuracy and throughput on sharded
// storage at several resident-byte budgets.
//
// The headline invariant of the sharded path is that the *estimate*
// never moves: the walk sequence is a function of the seed alone, so a
// run that reads through the chains' small neighbor-list caches
// produces bit-identical concentrations to the in-memory run, and pays
// only in shard reads. This bench measures that price: steps/s and
// NRMSE for an unbounded open (budget 0: GraphSource::Open copies the
// shards into one in-memory Graph, so it has no shard statistics) and at
// budget fractions {100%, 50%, 25%} of the total shard bytes, against
// the monolithic in-memory engine as the baseline. Every budget above 0
// gives each reader the same fixed-size cache, so the three budget rows
// report the same peak bytes.
// With --reps R every configuration runs R times, in alternating order;
// the table reports medians, and unbounded_vs_monolithic and
// budget100_vs_monolithic are the medians over repetitions of the
// unbounded / monolithic and budget-100% / monolithic steps/s ratios,
// each with its interquartile range as the spread.
//
// Flags:
//   --n N              Holme-Kim nodes (default 20000 -> ~80K edges)
//   --param M          Holme-Kim edges-per-node (default 4)
//   --shards S         shard count (default 8)
//   --steps N          steps per chain (default 100000)
//   --chains C         independent chains (default 32)
//   --threads T        worker threads (default 0 = all cores)
//   --reps R           repetitions of every configuration (default 1)
//   --dir PATH         scratch directory (default: system temp)
//   --check-identical  exit 1 unless every sharded run's merged
//                      concentrations are bit-identical to the
//                      monolithic baseline (CI smoke gate)
//   --keep             keep the generated files
//   --csv PATH         mirror the table to CSV
//   --json PATH        machine-readable results (BENCH_*.json format)
//
// Run by the Release-mode smoke (tools/smoke.sh) with
// --check-identical, which also exercises cache eviction under real
// walk access patterns (the 25% run cannot hold the graph).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/engine.h"
#include "eval/ground_truth.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/sharded_access.h"
#include "graph/sharding.h"
#include "graph/source.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct RunPoint {
  std::string name;
  double fraction = 1.0;    // of total shard bytes; 0 = unbounded,
                            // < 0 = monolithic
  double seconds = 0.0;
  double steps_per_s = 0.0;  // median over repetitions
  std::vector<double> rep_steps_per_s;
  double nrmse = 0.0;
  grw::ShardStats shards;   // zeros unless read through a shard store
  std::vector<double> concentrations;
};

// NRMSE across per-chain estimates of the ground truth's dominant type
// (the paper's protocol: pick a target graphlet, measure spread).
double NrmseOfDominantType(const grw::EngineResult& result,
                           const std::vector<double>& truth, int type) {
  std::vector<double> estimates;
  estimates.reserve(result.per_chain.size());
  for (const grw::EstimateResult& chain : result.per_chain) {
    estimates.push_back(chain.concentrations[static_cast<size_t>(type)]);
  }
  return grw::Nrmse(estimates, truth[static_cast<size_t>(type)]);
}

}  // namespace

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  const auto n = flags.GetUInt32("n", 20000);
  const auto param = flags.GetUInt32("param", 4);
  const auto num_shards = flags.GetUInt32("shards", 8);
  const uint64_t steps = flags.GetUInt64("steps", 100000);
  const int chains = flags.GetInt32("chains", 32);
  const auto threads = flags.GetUnsigned("threads", 0);
  const int reps = std::max(flags.GetInt32("reps", 1), 1);
  const bool check_identical = flags.GetBool("check-identical");

  namespace fs = std::filesystem;
  const fs::path dir = flags.Has("dir")
                           ? fs::path(flags.GetString("dir", ""))
                           : fs::temp_directory_path() / "grw_sharded_bench";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string shard_dir = (dir / "graph.shards").string();

  grw::Rng rng(7);
  grw::WallTimer gen_timer;
  const grw::Graph g =
      grw::LargestConnectedComponent(grw::HolmeKim(n, param, 0.3, rng));
  std::fprintf(stderr, "[sharded] generated %s in %s\n",
               g.Summary().c_str(),
               grw::Table::Duration(gen_timer.Seconds()).c_str());

  grw::WallTimer shard_timer;
  grw::ShardingOptions shard_opt;
  shard_opt.num_shards = num_shards;
  const grw::ShardManifest manifest =
      grw::WriteShardedGraph(g, shard_dir, shard_opt);
  const uint64_t total_bytes = manifest.TotalShardBytes();
  std::fprintf(stderr, "[sharded] wrote %u shards (%.1f MiB) in %s\n",
               manifest.NumShards(),
               static_cast<double>(total_bytes) / (1024.0 * 1024.0),
               grw::Table::Duration(shard_timer.Seconds()).c_str());

  // Ground truth for the NRMSE column (cached under ./.gt_cache).
  grw::EstimatorConfig config;
  config.k = 4;
  config.d = 2;
  config.css = true;
  const std::string cache_key =
      "sharded_bench_n" + std::to_string(g.NumNodes()) + "_m" +
      std::to_string(g.NumEdges());
  const std::vector<double> truth =
      grw::CachedExactConcentrations(g, config.k, cache_key);
  const int target = static_cast<int>(
      std::max_element(truth.begin(), truth.end()) - truth.begin());

  grw::EngineOptions options;
  options.chains = chains;
  options.threads = threads;
  options.max_steps = steps;
  options.base_seed = 20240808;

  // Monolithic in-memory baseline, an unbounded sharded run, then
  // sharded runs at shrinking budgets; with --reps, every configuration
  // once per repetition.
  std::vector<RunPoint> points(5);
  points[0].name = "monolithic (in-memory)";
  points[0].fraction = -1.0;
  points[1].name = "sharded unbounded";
  points[1].fraction = 0.0;
  const double fractions[] = {1.0, 0.5, 0.25};
  for (size_t i = 2; i < points.size(); ++i) {
    points[i].fraction = fractions[i - 2];
    points[i].name = "sharded " +
                     grw::Table::Num(fractions[i - 2] * 100.0, 0) +
                     "% budget";
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (RunPoint& p : points) {
      grw::GraphSource source = grw::GraphSource::FromGraph(g);
      if (p.fraction >= 0.0) {
        grw::OpenOptions open;
        open.resident_budget_bytes = static_cast<uint64_t>(
            p.fraction * static_cast<double>(total_bytes));
        source = grw::GraphSource::Open(shard_dir, open);
      }
      grw::EstimationEngine engine =
          source.sharded()
              ? grw::EstimationEngine(source.shards(), config, options)
              : grw::EstimationEngine(source.graph(), config, options);
      grw::WallTimer t;
      const grw::EngineResult result = engine.Run();
      p.seconds = t.Seconds();
      p.rep_steps_per_s.push_back(
          static_cast<double>(result.merged.steps) / p.seconds);
      p.nrmse = NrmseOfDominantType(result, truth, target);
      p.shards = result.shards;
      p.concentrations = result.merged.concentrations;
    }
  }
  for (RunPoint& p : points) {
    p.steps_per_s = grw::bench::Quantile(p.rep_steps_per_s, 0.5);
  }

  const RunPoint& base = points.front();
  grw::Table table("sharded bench: " + g.Summary() + ", " +
                   std::to_string(manifest.NumShards()) + " shards, " +
                   std::to_string(chains) + " chains x " +
                   std::to_string(steps) + " steps, truth type " +
                   std::to_string(target) + ", median of " +
                   std::to_string(reps) + " rep(s)");
  table.SetHeader({"configuration", "steps/s", "slowdown", "NRMSE",
                   "hit rate", "evictions", "peak MiB"});
  for (const RunPoint& p : points) {
    const bool sharded = p.fraction > 0.0;
    table.AddRow(
        {p.name, grw::Table::Num(p.steps_per_s, 0),
         grw::Table::Num(base.steps_per_s / p.steps_per_s, 2) + "x",
         grw::Table::Num(p.nrmse, 4),
         sharded ? grw::Table::Num(100.0 * p.shards.HitRate(), 1) + "%"
                 : "-",
         sharded ? std::to_string(p.shards.evictions) : "-",
         sharded ? grw::Table::Num(static_cast<double>(
                                       p.shards.peak_resident_bytes) /
                                       (1024.0 * 1024.0),
                                   2)
                 : "-"});
  }
  table.Print();
  grw::bench::MaybeWriteCsv(flags, table);

  std::vector<grw::bench::JsonMetric> metrics;
  metrics.push_back({"monolithic_steps_per_s", base.steps_per_s, "1/s"});
  metrics.push_back({"monolithic_nrmse", base.nrmse, ""});
  for (size_t i = 1; i < points.size(); ++i) {
    const RunPoint& p = points[i];
    const std::string prefix =
        p.fraction == 0.0
            ? std::string("unbounded_")
            : "budget" + grw::Table::Num(p.fraction * 100.0, 0) + "_";
    metrics.push_back({prefix + "steps_per_s", p.steps_per_s, "1/s"});
    metrics.push_back({prefix + "nrmse", p.nrmse, ""});
    if (p.fraction == 0.0) continue;  // no shard store, no shard stats
    metrics.push_back({prefix + "hit_rate", p.shards.HitRate(), ""});
    metrics.push_back({prefix + "evictions",
                       static_cast<double>(p.shards.evictions), ""});
    metrics.push_back(
        {prefix + "peak_resident_mib",
         static_cast<double>(p.shards.peak_resident_bytes) /
             (1024.0 * 1024.0),
         "MiB"});
  }
  // Pairs of one repetition: a sharded run against the monolithic run,
  // as the median ratio and its interquartile range.
  const auto vs_monolithic = [&](const std::string& label,
                                 const RunPoint& p) {
    std::vector<double> ratios;
    for (int rep = 0; rep < reps; ++rep) {
      ratios.push_back(p.rep_steps_per_s[rep] / base.rep_steps_per_s[rep]);
    }
    const double median = grw::bench::Quantile(ratios, 0.5);
    const double iqr = grw::bench::Quantile(ratios, 0.75) -
                       grw::bench::Quantile(ratios, 0.25);
    std::printf("%s / monolithic steps/s: %.3f (IQR %.3f over %d rep(s))\n",
                label.c_str(), median, iqr, reps);
    metrics.push_back({label + "_vs_monolithic", median, "x"});
    metrics.push_back({label + "_vs_monolithic_iqr", iqr, "x"});
  };
  vs_monolithic("unbounded", points[1]);
  vs_monolithic("budget100", points[2]);
  grw::bench::MaybeWriteJson(flags, "sharded", g.Summary(), metrics);

  if (!flags.GetBool("keep")) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  if (check_identical) {
    for (size_t i = 1; i < points.size(); ++i) {
      if (points[i].concentrations != base.concentrations) {
        std::fprintf(stderr,
                     "FAIL: %s diverged from the monolithic estimate\n",
                     points[i].name.c_str());
        return 1;
      }
    }
    std::printf("OK: all sharded runs bit-identical to the monolithic "
                "estimate\n");
  }
  return 0;
}
