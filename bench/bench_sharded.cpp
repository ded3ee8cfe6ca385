// Out-of-core bench: estimation accuracy and throughput on sharded
// storage as the resident-byte budget shrinks.
//
// The headline invariant of the sharded path is that the *estimate*
// never moves: the walk sequence is a function of the seed alone, so a
// run that only ever holds 25% of the graph in memory produces
// bit-identical concentrations to the all-resident run — the budget
// buys memory, and pays only in page faults. This bench measures that
// price: steps/s and NRMSE at budget fractions {100%, 50%, 25%} of the
// total shard bytes, against the monolithic in-memory engine as the
// baseline.
//
// Flags:
//   --n N              Holme-Kim nodes (default 20000 -> ~80K edges)
//   --param M          Holme-Kim edges-per-node (default 4)
//   --shards S         shard count (default 8)
//   --steps N          steps per chain (default 100000)
//   --chains C         independent chains (default 32)
//   --threads T        worker threads (default 0 = all cores)
//   --dir PATH         scratch directory (default: system temp)
//   --check-identical  exit 1 unless every sharded run's merged
//                      concentrations are bit-identical to the
//                      monolithic baseline (CI smoke gate)
//   --keep             keep the generated files
//   --csv PATH         mirror the table to CSV
//   --json PATH        machine-readable results (BENCH_*.json format)
//
// Run by the Release-mode smoke (tools/smoke.sh) with
// --check-identical, which also exercises LRU eviction under real
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
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct RunPoint {
  std::string name;
  double fraction = 1.0;    // of total shard bytes; <= 0 means monolithic
  double seconds = 0.0;
  double steps_per_s = 0.0;
  double nrmse = 0.0;
  grw::ShardStats shards;   // zeros for the monolithic baseline
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

  std::vector<RunPoint> points;

  // Monolithic in-memory baseline.
  {
    RunPoint p;
    p.name = "monolithic (in-memory)";
    p.fraction = -1.0;
    grw::EstimationEngine engine(g, config, options);
    grw::WallTimer t;
    const grw::EngineResult result = engine.Run();
    p.seconds = t.Seconds();
    p.steps_per_s =
        static_cast<double>(result.merged.steps) / p.seconds;
    p.nrmse = NrmseOfDominantType(result, truth, target);
    p.concentrations = result.merged.concentrations;
    points.push_back(std::move(p));
  }

  // Sharded runs at shrinking budgets.
  for (const double fraction : {1.0, 0.5, 0.25}) {
    RunPoint p;
    p.name = "sharded " + grw::Table::Num(fraction * 100.0, 0) + "% budget";
    p.fraction = fraction;
    grw::ShardStore::Options store_opt;
    store_opt.resident_budget_bytes = static_cast<uint64_t>(
        fraction * static_cast<double>(total_bytes));
    const grw::ShardStore store(manifest, store_opt);
    grw::EstimationEngine engine(store, config, options);
    grw::WallTimer t;
    const grw::EngineResult result = engine.Run();
    p.seconds = t.Seconds();
    p.steps_per_s =
        static_cast<double>(result.merged.steps) / p.seconds;
    p.nrmse = NrmseOfDominantType(result, truth, target);
    p.shards = result.shards;
    p.concentrations = result.merged.concentrations;
    points.push_back(std::move(p));
  }

  const RunPoint& base = points.front();
  grw::Table table("sharded bench: " + g.Summary() + ", " +
                   std::to_string(manifest.NumShards()) + " shards, " +
                   std::to_string(chains) + " chains x " +
                   std::to_string(steps) + " steps, truth type " +
                   std::to_string(target));
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
        "budget" + grw::Table::Num(p.fraction * 100.0, 0) + "_";
    metrics.push_back({prefix + "steps_per_s", p.steps_per_s, "1/s"});
    metrics.push_back({prefix + "nrmse", p.nrmse, ""});
    metrics.push_back({prefix + "hit_rate", p.shards.HitRate(), ""});
    metrics.push_back({prefix + "evictions",
                       static_cast<double>(p.shards.evictions), ""});
    metrics.push_back(
        {prefix + "peak_resident_mib",
         static_cast<double>(p.shards.peak_resident_bytes) /
             (1024.0 * 1024.0),
         "MiB"});
  }
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
