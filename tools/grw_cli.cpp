// grw — command-line front end for the library.
//
// Subcommands:
//   grw datasets
//       List the built-in synthetic datasets (paper Table 5 analogs).
//   grw generate <dataset-or-model> [--out FILE] [--scale S]
//       [--n N --param M --triad P --seed S]
//       Write a synthetic graph as an edge list. <dataset-or-model> is a
//       registry name (e.g. epinion-sim) or one of: er, ba, hk, ws.
//   grw convert <input> <output.grwb> [--relabel-degree] [--lcc 0|1]
//       [--verify 0|1] [--scale S]
//       Convert an edge list (or registry dataset name) to a `.grwb`
//       binary CSR snapshot that loads zero-copy via mmap. Convert once,
//       then point every other command and bench at the snapshot.
//   grw shard <graph> <out-dir> [--shards N | --target-shard-mb M]
//       [--relabel-degree] [--lcc 0|1] [--scale S]
//       Partition a graph into a sharded out-of-core snapshot
//       (graph/sharding.h): <out-dir>/MANIFEST.grws plus checksummed
//       shard-NNNNN.grws files, every file written crash-safe. Balanced
//       by half-edge mass across --shards, or cut at --target-shard-mb
//       per shard (default 64). `estimate` and `grw_serve` then serve
//       the directory out-of-core under a byte budget.
//   grw info <graph>
//       Basic statistics of a graph (after simplification + LCC). For a
//       sharded manifest (or its directory): manifest-level stats, the
//       log2 degree histogram, and a per-shard table of vertex ranges,
//       sizes, and checksums — no shard payload is read unless
//       --verify is given.
//   grw exact <graph> --k K
//       Exact induced graphlet counts and concentrations.
//   grw estimate <graph> --k K [--d D] [--css 0|1] [--nb 0|1]
//       [--steps N] [--seed S] [--chains C] [--threads T] [--counts]
//       [--target-nrmse X] [--max-steps N] [--quiet] [--crawl]
//       [--budget-queries B] [--cache-size C] [--latency-us L]
//       [--fail-prob P] [--fail-retries R] [--fail-backoff-us U]
//       [--resident-budget-mb M]
//       Random-walk estimation (the paper's Algorithm 1) on the parallel
//       estimation engine: --chains independent chains merged into one
//       estimate; with --target-nrmse the engine stops as soon as the
//       batch-means relative standard error of every non-negligible
//       concentration is below X (capped at --max-steps per chain,
//       default --steps). Any crawl flag simulates the paper's
//       restricted-access setting: each chain reads the graph through a
//       private LRU neighbor cache of --cache-size lists (0 = unbounded)
//       with per-query accounting and optional simulated latency, and
//       --budget-queries stops the run once B distinct neighbor-list
//       fetches were spent across chains. --fail-prob adds a transient
//       fetch-failure model (bounded retries, exponential backoff +
//       jitter, deterministic per chain) whose retries/giveups/backoff
//       land in the crawl-cost report. Estimates are bit-identical to
//       the full-access run; only cost and stopping change.
//       --raw swaps the table for machine-readable `label value` lines
//       (%.17g), diffable against `grw query --raw`. A sharded graph
//       (a `grw shard` directory or its MANIFEST.grws) with no
//       --resident-budget-mb is copied into memory at open and runs as
//       a `.grwb` would. With --resident-budget-mb M > 0 the engine runs
//       out-of-core: each chain reads the neighbor lists it needs into
//       its own cache, of one size set by the graph's degree bound
//       whatever M is, and a shard-read report follows the table.
//       Estimates under any budget are bit-identical to the monolithic
//       run. Crawl flags put each chain's crawl cache in front of the
//       shard store. --counts needs the resident graph and is rejected
//       under a budget. The other flags build the request `grw query`
//       sends, parsed by the server's parser.
//   grw query <id> [--host H] [--port P] [--raw] [--send 'LINE']
//       [estimation flags as in `estimate`] [--deadline-ms MS]
//       [--tenant NAME]
//       Ask a running `grw_serve` daemon for an estimate over the line
//       protocol (src/serve/protocol.h). The request is the line
//       `estimate` parses locally, so the served answer is bit-identical
//       to a local run on the same snapshot by construction. --send
//       bypasses the flag mapping and ships a raw protocol line (PING,
//       LIST, ...).
//       --connect-timeout-ms/--read-timeout-ms bound every wait (defaults
//       5000/30000, -1 = forever) and --retries bounds the resilience
//       loop: transport failures reconnect + resend, RETRY_AFTER load
//       sheds honor the server's backoff hint, other errors are final.
//
// Every place a <graph> is taken, text edge lists, `.grwb` snapshots,
// sharded manifests (a `grw shard` directory or its MANIFEST.grws) and
// registry dataset names are all accepted (GraphSource::Open, format
// auto-detected). `exact` reads a sharded graph through its in-memory
// copy; `convert` and `shard` refuse sharded input (start from the edge
// list or `.grwb` it was built from).
// Every command accepts --help-free flag forms --name value / --name=value.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/paper_ids.h"
#include "core/rsize.h"
#include "engine/engine.h"
#include "eval/datasets.h"
#include "exact/exact.h"
#include "exact/triangle.h"
#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/sharded_access.h"
#include "graph/sharding.h"
#include "graph/source.h"
#include "graphlet/catalog.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

int Usage() {
  std::fputs(
      "usage: grw <command> [args]\n"
      "  datasets                         list built-in synthetic datasets\n"
      "  generate <name|er|ba|hk|ws> ...  write a synthetic edge list\n"
      "  convert <graph> <out.grwb> [--relabel-degree] [--lcc 0|1]\n"
      "                                   write a binary CSR snapshot\n"
      "                                   (zero-copy mmap load)\n"
      "  shard <graph> <out-dir> [--shards N | --target-shard-mb M]\n"
      "        [--relabel-degree] [--lcc 0|1]\n"
      "                                   partition into an out-of-core\n"
      "                                   sharded snapshot (MANIFEST.grws\n"
      "                                   + checksummed shard files)\n"
      "  info <graph>                     graph statistics (sharded\n"
      "                                   manifest: per-shard table)\n"
      "  exact <graph> --k K              exact graphlet statistics\n"
      "  estimate <graph> --k K [--chains C] [--target-nrmse X]\n"
      "           [--max-steps N] ...     random-walk estimation with\n"
      "                                   convergence-driven stopping\n"
      "           [--crawl] [--budget-queries B] [--cache-size C]\n"
      "           [--latency-us L]         crawl scenario: LRU-cached\n"
      "                                   restricted access, stop at B\n"
      "                                   distinct neighbor fetches\n"
      "           [--fail-prob P] [--fail-retries R] [--fail-backoff-us U]\n"
      "                                   transient fetch failures with\n"
      "                                   bounded retry + backoff (cost\n"
      "                                   model; estimates unchanged)\n"
      "           [--raw]                  `label value` lines instead of\n"
      "                                   the table (diffable vs query)\n"
      "           [--resident-budget-mb M] sharded graphs: M > 0 runs\n"
      "                                   out-of-core through fixed-size\n"
      "                                   per-chain list caches (0 = copy\n"
      "                                   the shards into memory at open)\n"
      "  query <id> [--host H] [--port P] [--raw] [--send 'LINE']\n"
      "           [estimation flags] [--deadline-ms MS] [--tenant NAME]\n"
      "                                   query a running grw_serve daemon;\n"
      "                                   results are bit-identical to a\n"
      "                                   local `estimate` run\n"
      "           [--connect-timeout-ms MS] [--read-timeout-ms MS]\n"
      "           [--retries R]            bounded waits (defaults 5000 /\n"
      "                                   30000, -1 = forever) and retries\n"
      "                                   on transport errors + RETRY_AFTER\n"
      "                                   load sheds (default 4)\n"
      "  <graph> may be a text edge list, a .grwb snapshot, a sharded\n"
      "  manifest (a `grw shard` directory or its MANIFEST.grws), or a\n"
      "  dataset name from `grw datasets`.\n",
      stderr);
  return 2;
}

// One open path for every command: registry dataset names become
// in-memory sources, everything else goes through GraphSource::Open's
// auto-detection (sharded manifest / .grwb snapshot / text edge list).
grw::GraphSource OpenPositional(const grw::Flags& flags, size_t index,
                                const grw::OpenOptions& options = {}) {
  if (flags.positional().size() <= index) {
    throw std::runtime_error("missing <graph> argument");
  }
  const std::string& path = flags.positional()[index];
  // Registry names are accepted anywhere a file is.
  if (grw::FindDataset(path).has_value()) {
    return grw::GraphSource::FromGraph(grw::MakeDatasetByName(path, 1.0),
                                       path);
  }
  return grw::GraphSource::Open(path, options);
}

int CmdDatasets() {
  grw::Table table("built-in datasets (synthetic analogs of paper Table 5)");
  table.SetHeader({"name", "stands in for", "tier", "model"});
  for (const auto& spec : grw::DatasetRegistry()) {
    const char* tier = spec.tier == grw::DatasetTier::kSmall    ? "small"
                       : spec.tier == grw::DatasetTier::kMedium ? "medium"
                                                                : "large";
    const char* model =
        spec.model == grw::DatasetSpec::Model::kHolmeKim ? "holme-kim"
        : spec.model == grw::DatasetSpec::Model::kBarabasiAlbert
            ? "barabasi-albert"
            : "erdos-renyi";
    table.AddRow({spec.name, spec.paper_name, tier, model});
  }
  table.Print();
  return 0;
}

int CmdGenerate(const grw::Flags& flags) {
  if (flags.positional().size() < 2) return Usage();
  const std::string& kind = flags.positional()[1];
  const std::string out = flags.GetString("out", kind + ".edges");
  grw::Graph g;
  if (grw::FindDataset(kind).has_value()) {
    g = grw::MakeDatasetByName(kind, flags.GetDouble("scale", 1.0));
  } else {
    grw::Rng rng(flags.GetInt("seed", 1));
    const auto n = flags.GetUInt32("n", 10000);
    const auto param = flags.GetUInt32("param", 5);
    if (kind == "er") {
      g = grw::ErdosRenyi(n, static_cast<uint64_t>(n) * param / 2, rng);
    } else if (kind == "ba") {
      g = grw::BarabasiAlbert(n, param, rng);
    } else if (kind == "hk") {
      g = grw::HolmeKim(n, param, flags.GetDouble("triad", 0.5), rng,
                        flags.GetUInt32("cap", 0));
    } else if (kind == "ws") {
      g = grw::WattsStrogatz(n, param, flags.GetDouble("beta", 0.1), rng);
    } else {
      std::fprintf(stderr, "unknown model/dataset: %s\n", kind.c_str());
      return 2;
    }
  }
  grw::SaveEdgeList(g, out);
  std::printf("wrote %s: %s\n", out.c_str(), g.Summary().c_str());
  return 0;
}

// The monolithic graph `convert` and `shard` write out: a registry
// dataset, or any non-sharded input (--lcc applies to edge lists),
// relabeled by degree with --relabel-degree. Adds the snapshot flags to
// store with it to `grwb_flags`; a degree-relabeled input stays marked
// as such.
grw::Graph LoadForWrite(const grw::Flags& flags, const std::string& in,
                        uint32_t& grwb_flags) {
  grw::Graph g;
  if (grw::FindDataset(in).has_value()) {
    g = grw::MakeDatasetByName(in, flags.GetDouble("scale", 1.0));
  } else {
    grw::OpenOptions open;
    open.largest_cc = flags.GetBool("lcc", true);
    const grw::GraphSource source = grw::GraphSource::Open(in, open);
    if (source.kind() == grw::GraphSourceKind::kSharded) {
      throw std::runtime_error(
          "'" + in + "' is already sharded; start from the edge list or "
          "monolithic .grwb it was built from");
    }
    if (source.degree_relabeled()) {
      grwb_flags |= grw::kGrwbFlagDegreeRelabeled;
    }
    g = source.graph();
  }
  if (flags.GetBool("relabel-degree")) {
    g = grw::RelabelByDegree(g);
    grwb_flags |= grw::kGrwbFlagDegreeRelabeled;
  }
  return g;
}

int CmdConvert(const grw::Flags& flags) {
  if (flags.positional().size() < 3) return Usage();
  const std::string& in = flags.positional()[1];
  const std::string& out = flags.positional()[2];

  grw::WallTimer load_timer;
  uint32_t grwb_flags = 0;
  const grw::Graph g = LoadForWrite(flags, in, grwb_flags);
  const double load_s = load_timer.Seconds();

  grw::WallTimer save_timer;
  grw::SaveGraphBinary(g, out, grwb_flags);
  const double save_s = save_timer.Seconds();
  // Read-back, by default with the full checksum pass: cheap relative to
  // the conversion, and a corrupted snapshot discovered now is a bench
  // run saved later.
  const grw::GraphSource saved = grw::GraphSource::Open(
      out, {.verify = flags.GetBool("verify", true)});
  std::printf("wrote %s: %s%s, %.1f MiB (load %s, convert+write %s)\n",
              out.c_str(), g.Summary().c_str(),
              saved.degree_relabeled() ? ", degree-relabeled" : "",
              static_cast<double>(std::filesystem::file_size(out)) /
                  (1024.0 * 1024.0),
              grw::Table::Duration(load_s).c_str(),
              grw::Table::Duration(save_s).c_str());
  return 0;
}

int CmdShard(const grw::Flags& flags) {
  if (flags.positional().size() < 3) return Usage();
  const std::string& in = flags.positional()[1];
  const std::string& dir = flags.positional()[2];
  if (flags.Has("shards") && flags.Has("target-shard-mb")) {
    throw std::runtime_error(
        "--shards and --target-shard-mb are mutually exclusive");
  }

  grw::WallTimer load_timer;
  uint32_t grwb_flags = 0;
  const grw::Graph g = LoadForWrite(flags, in, grwb_flags);
  const double load_s = load_timer.Seconds();

  grw::ShardingOptions sharding;
  sharding.flags = grwb_flags;
  if (flags.Has("shards")) {
    const int64_t shards = flags.GetInt("shards", 0);
    if (shards < 1 || static_cast<uint64_t>(shards) > g.NumNodes()) {
      throw std::runtime_error("--shards must be in [1, num nodes]");
    }
    sharding.num_shards = static_cast<uint32_t>(shards);
  } else {
    const int64_t target_mb = flags.GetInt("target-shard-mb", 64);
    if (target_mb < 1) {
      throw std::runtime_error("--target-shard-mb must be >= 1");
    }
    sharding.target_shard_bytes = static_cast<uint64_t>(target_mb) << 20;
  }

  grw::WallTimer write_timer;
  const grw::ShardManifest manifest =
      grw::WriteShardedGraph(g, dir, sharding);
  std::printf(
      "wrote %s: %s%s, %u shard(s), %.1f MiB total "
      "(load %s, shard+write %s)\n",
      manifest.path.c_str(), g.Summary().c_str(),
      manifest.DegreeRelabeled() ? ", degree-relabeled" : "",
      manifest.NumShards(),
      static_cast<double>(manifest.TotalShardBytes()) / (1024.0 * 1024.0),
      grw::Table::Duration(load_s).c_str(),
      grw::Table::Duration(write_timer.Seconds()).c_str());
  return 0;
}

// `grw info` on a sharded manifest: everything here comes from the
// manifest alone — shard balance is inspectable without faulting a
// single shard page. --verify additionally opens and checksums every
// shard (the out-of-core analogue of `convert --verify`'s read-back).
int ShardedInfo(const std::string& path, bool verify) {
  const grw::ShardManifest manifest = grw::LoadShardManifest(path, verify);
  grw::Table table("sharded graph statistics" +
                   std::string(verify ? " (shards verified)" : ""));
  table.SetHeader({"quantity", "value"});
  table.AddRow({"format", "grws v" + std::to_string(manifest.version) +
                              (manifest.DegreeRelabeled()
                                   ? " (degree-relabeled)"
                                   : "")});
  table.AddRow({"nodes", grw::Table::Int(static_cast<long long>(
                             manifest.total_nodes))});
  table.AddRow({"edges", grw::Table::Int(static_cast<long long>(
                             manifest.total_half_edges / 2))});
  table.AddRow({"shards", grw::Table::Int(manifest.NumShards())});
  table.AddRow({"total size",
                grw::Table::Num(static_cast<double>(
                                    manifest.TotalShardBytes()) /
                                    (1024.0 * 1024.0), 1) + " MiB"});
  // Log2 degree histogram (bucket b = degrees with bit-width b).
  for (int b = 0; b < grw::kDegreeHistogramBuckets; ++b) {
    if (manifest.degree_histogram[static_cast<size_t>(b)] == 0) continue;
    std::string label;
    if (b <= 1) {
      label = "deg " + std::to_string(b);
    } else {
      label = "deg " + std::to_string(1ull << (b - 1)) + ".." +
              std::to_string((1ull << b) - 1);
    }
    table.AddRow({label,
                  grw::Table::Int(static_cast<long long>(
                      manifest.degree_histogram[static_cast<size_t>(b)]))});
  }
  table.Print();

  grw::Table shards("shards (" + manifest.dir + ")");
  shards.SetHeader({"shard", "rows [first, end)", "half-edges", "MiB",
                    "checksum"});
  for (uint32_t s = 0; s < manifest.NumShards(); ++s) {
    const grw::ShardInfo& info = manifest.shards[s];
    char range[48];
    std::snprintf(range, sizeof(range), "[%llu, %llu)",
                  static_cast<unsigned long long>(info.first_node),
                  static_cast<unsigned long long>(info.first_node +
                                                  info.num_rows));
    char checksum[24];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(info.data_checksum));
    shards.AddRow({grw::Table::Int(s), range,
                   grw::Table::Int(static_cast<long long>(
                       info.num_half_edges)),
                   grw::Table::Num(static_cast<double>(info.file_bytes) /
                                       (1024.0 * 1024.0), 1),
                   checksum});
  }
  shards.Print();
  return 0;
}

int CmdInfo(const grw::Flags& flags) {
  if (flags.positional().size() > 1 &&
      !grw::FindDataset(flags.positional()[1]).has_value() &&
      grw::IsShardManifestPath(flags.positional()[1])) {
    return ShardedInfo(flags.positional()[1], flags.GetBool("verify"));
  }
  const grw::GraphSource source = OpenPositional(flags, 1);
  const grw::Graph& g = source.graph();
  grw::Table table("graph statistics");
  table.SetHeader({"quantity", "value"});
  if (source.kind() == grw::GraphSourceKind::kBinary) {
    table.AddRow({"format", "grwb v" + std::to_string(grw::kGrwbVersion) +
                                (source.degree_relabeled()
                                     ? " (degree-relabeled)"
                                     : "")});
  }
  table.AddRow({"nodes", grw::Table::Int(g.NumNodes())});
  table.AddRow({"edges", grw::Table::Int(
                             static_cast<long long>(g.NumEdges()))});
  table.AddRow({"max degree", grw::Table::Int(g.MaxDegree())});
  table.AddRow({"avg degree",
                grw::Table::Num(2.0 * static_cast<double>(g.NumEdges()) /
                                    g.NumNodes(), 2)});
  table.AddRow({"wedges |R(2)|", grw::Table::Int(static_cast<long long>(
                                     g.WedgeCount()))});
  table.AddRow({"global clustering",
                grw::Table::Num(grw::GlobalClusteringCoefficient(g), 5)});
  table.Print();
  return 0;
}

int CmdExact(const grw::Flags& flags) {
  const grw::Graph g = OpenPositional(flags, 1).graph();
  const int k = static_cast<int>(
      flags.GetIntInRange("k", 4, 3, grw::kMaxGraphletSize));
  grw::WallTimer timer;
  const auto counts = grw::ExactGraphletCounts(g, k);
  const auto conc = grw::ConcentrationsFromCounts(counts);
  grw::Table table("exact " + std::to_string(k) + "-node graphlets (" +
                   grw::Table::Duration(timer.Seconds()) + ")");
  table.SetHeader({"graphlet", "name", "count", "concentration"});
  const auto& order = grw::PaperOrder(k);
  const auto& catalog = grw::GraphletCatalog::ForSize(k);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const int id = order[pos];
    table.AddRow({grw::PaperLabel(k, static_cast<int>(pos)),
                  catalog.Get(id).name,
                  grw::Table::Int(static_cast<long long>(counts[id])),
                  grw::Table::Sci(conc[id])});
  }
  table.Print();
  return 0;
}

int CmdEstimate(const grw::Flags& flags) {
  // The request `grw query` would send, parsed by the server's own parser
  // (without its limits): every default, range check and crawl-presence
  // rule of the shared flags is the protocol's. The graph field is a
  // placeholder, as this command opens the path itself.
  const grw::serve::ParsedRequest parsed = grw::serve::ParseRequestLine(
      grw::serve::EstimateRequestLine(flags, "cli"),
      grw::serve::RequestLimits::None());
  if (!parsed.request.has_value()) throw std::runtime_error(parsed.error);
  const grw::serve::EstimateRequest& request = parsed.request->estimate;
  const grw::EstimatorConfig& config = request.config;

  const bool counts = flags.GetBool("counts");
  if (counts && config.d > 2) {
    throw std::runtime_error(
        "--counts requires --d <= 2 (no closed-form |R(d)| for d >= 3)");
  }

  // The round slicing comes pinned from the request, so --quiet (which
  // only drops the progress callback) cannot change the batch structure
  // and thus the reported standard errors. CLI-only knobs follow:
  // simulated latency and a transient-failure model (cost-only —
  // estimates are unchanged): each fetch attempt fails with --fail-prob,
  // answered by up to --fail-retries retries under exponential backoff
  // starting at --fail-backoff-us (doubling, capped, plus jitter). Any of
  // them switches the run onto crawl accounting.
  grw::EngineOptions options = grw::serve::ToEngineOptions(request);
  const int64_t threads = flags.GetInt("threads", 0);
  grw::CrawlOptions crawl = options.crawl.value_or(grw::CrawlOptions{});
  grw::CrawlOptions::FailureModel& fail = crawl.failure;
  crawl.latency_us = flags.GetDouble("latency-us", crawl.latency_us);
  fail.fail_prob = flags.GetDouble("fail-prob", fail.fail_prob);
  fail.max_retries = flags.GetInt32("fail-retries", fail.max_retries);
  fail.backoff_base_us =
      flags.GetDouble("fail-backoff-us", fail.backoff_base_us);
  if (threads < 0 || crawl.latency_us < 0.0 || fail.max_retries < 0 ||
      fail.backoff_base_us < 0.0) {
    throw std::runtime_error(
        "--threads / --latency-us / --fail-retries / --fail-backoff-us "
        "must be >= 0");
  }
  if (fail.fail_prob < 0.0 || fail.fail_prob >= 1.0) {
    throw std::runtime_error("--fail-prob must be in [0, 1)");
  }
  options.threads = static_cast<unsigned>(threads);
  if (flags.Has("latency-us") || flags.Has("fail-prob") ||
      flags.Has("fail-retries") || flags.Has("fail-backoff-us")) {
    options.crawl = crawl;
  }

  grw::OpenOptions open;
  open.resident_budget_bytes =
      static_cast<uint64_t>(flags.GetIntInRange("resident-budget-mb", 0, 0,
                                                (int64_t{1} << 44) - 1))
      << 20;
  const grw::GraphSource source = OpenPositional(flags, 1, open);
  const bool sharded = source.sharded();
  if (counts && sharded) {
    throw std::runtime_error(
        "--counts needs |R(d)| from the resident graph; a sharded graph "
        "under --resident-budget-mb reports concentrations only");
  }
  grw::Graph g;  // resident path only; stays empty for sharded sources
  if (!sharded) g = source.graph();

  const bool quiet = flags.GetBool("quiet");
  if (!quiet && (options.target_nrmse > 0.0 || options.chains > 1)) {
    options.on_progress = [](const grw::EngineProgress& p) {
      std::fprintf(stderr,
                   "[engine] round %d: %llu/%llu steps/chain x %d chains, "
                   "%.2fM steps/s, max rel err %.4f\n",
                   p.round,
                   static_cast<unsigned long long>(p.steps_per_chain),
                   static_cast<unsigned long long>(p.max_steps), p.chains,
                   p.steps_per_second / 1e6, p.max_rel_error);
    };
  }

  grw::EstimationEngine engine =
      sharded ? grw::EstimationEngine(source.shards(), config, options)
              : grw::EstimationEngine(g, config, options);
  const grw::EngineResult run = engine.Run();

  if (flags.GetBool("raw")) {
    // Machine-readable output: one `label value` line per graphlet in
    // paper order, %.17g so the bytes survive a JSON round trip and the
    // CI serve smoke can diff this against `grw query --raw`.
    const auto& order = grw::PaperOrder(config.k);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      std::printf("%s %.17g\n",
                  grw::PaperLabel(config.k, static_cast<int>(pos)).c_str(),
                  run.merged.concentrations[order[pos]]);
    }
    return 0;
  }

  std::string title =
      config.Name() + ", " +
      std::to_string(run.steps_per_chain) + " steps x " +
      std::to_string(options.chains) + " chain(s), " +
      grw::Table::Duration(run.seconds);
  if (options.target_nrmse > 0.0) {
    title += run.converged ? ", converged" : ", NOT converged";
  }
  if (options.crawl && options.crawl->query_budget > 0) {
    title += run.budget_exhausted ? ", budget exhausted" : ", under budget";
  }
  grw::Table table(title);
  table.SetHeader({"graphlet", "name",
                   counts ? "estimated count" : "estimated concentration",
                   "conc batch SE", "chain stddev"});
  const uint64_t relationship_edges =
      counts ? grw::RelationshipEdgeCount(g, config.d) : 0;
  const std::vector<double> merged_values =
      counts ? grw::CountEstimatesFromResult(run.merged, relationship_edges)
             : run.merged.concentrations;
  // Per-chain values in the same units as the estimate column, so the
  // across-chain stddev is directly comparable to it.
  std::vector<std::vector<double>> chain_values;
  chain_values.reserve(run.per_chain.size());
  for (const auto& chain : run.per_chain) {
    chain_values.push_back(
        counts ? grw::CountEstimatesFromResult(chain, relationship_edges)
               : chain.concentrations);
  }
  const auto& order = grw::PaperOrder(config.k);
  const auto& catalog = grw::GraphletCatalog::ForSize(config.k);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const int id = order[pos];
    std::vector<double> values;
    for (const auto& chain : chain_values) {
      values.push_back(chain[id]);
    }
    table.AddRow({grw::PaperLabel(config.k, static_cast<int>(pos)),
                  catalog.Get(id).name, grw::Table::Sci(merged_values[id]),
                  run.standard_errors.empty()
                      ? "-"
                      : grw::Table::Sci(run.standard_errors[id]),
                  options.chains > 1
                      ? grw::Table::Sci(grw::SampleStddev(values))
                      : "-"});
  }
  table.Print();
  if (!quiet) {
    std::printf("throughput: %.2fM steps/s across %d chain(s)",
                run.steps_per_second / 1e6, options.chains);
    if (options.target_nrmse > 0.0) {
      std::printf("; %s at %llu steps/chain (target %.3f, reached %.4f)",
                  run.converged ? "converged" : "step cap hit",
                  static_cast<unsigned long long>(run.steps_per_chain),
                  options.target_nrmse, run.max_rel_error);
    }
    std::printf("\n");
  }
  if (sharded && !quiet) {
    const grw::ShardStats& s = run.shards;
    std::printf(
        "shard reads: %llu faults, %llu hits (%.1f%% hit rate), "
        "%llu evictions; peak %.1f of %.1f MiB charged (%.1f MiB budget, "
        "%u shards)\n",
        static_cast<unsigned long long>(s.faults),
        static_cast<unsigned long long>(s.hits), 100.0 * s.HitRate(),
        static_cast<unsigned long long>(s.evictions),
        static_cast<double>(s.peak_resident_bytes) / (1024.0 * 1024.0),
        static_cast<double>(
            source.shards().manifest().TotalShardBytes()) /
            (1024.0 * 1024.0),
        static_cast<double>(s.budget_bytes) / (1024.0 * 1024.0),
        source.shards().NumShards());
  }
  if (options.crawl && !quiet) {
    const grw::CrawlStats& a = run.access;
    std::printf(
        "crawl cost: %llu distinct queries (%llu fetches, %llu re-fetches "
        "after eviction), %.1f%% cache hit rate, %llu evictions\n",
        static_cast<unsigned long long>(a.distinct_fetches),
        static_cast<unsigned long long>(a.fetches),
        static_cast<unsigned long long>(a.Refetches()),
        100.0 * a.HitRate(),
        static_cast<unsigned long long>(a.evictions));
    if (options.crawl->failure.fail_prob > 0.0 ||
        a.transient_failures > 0) {
      std::printf(
          "crawl resilience: %llu transient failures -> %llu retries, "
          "%llu giveups (slow-path fallbacks), %.2fs simulated backoff\n",
          static_cast<unsigned long long>(a.transient_failures),
          static_cast<unsigned long long>(a.retries),
          static_cast<unsigned long long>(a.giveups),
          a.backoff_latency_us / 1e6);
    }
    if (options.crawl->latency_us > 0.0) {
      // Chains crawl concurrently, so simulated API latency amortizes
      // across them the way wall-clock does.
      const double sim_seconds =
          a.simulated_latency_us / 1e6 / options.chains;
      const double effective_seconds = run.seconds + sim_seconds;
      std::printf(
          "simulated latency: %.2fs/chain at %.0fus/query -> effective "
          "%.3fM steps/s\n",
          sim_seconds, options.crawl->latency_us,
          effective_seconds > 0.0
              ? static_cast<double>(run.merged.steps) / effective_seconds /
                    1e6
              : 0.0);
    }
    if (options.crawl->query_budget > 0) {
      std::printf("budget: %s — %llu of %llu budgeted distinct queries "
                  "spent, %llu total steps\n",
                  run.budget_exhausted ? "exhausted" : "not exhausted",
                  static_cast<unsigned long long>(
                      run.access.distinct_fetches),
                  static_cast<unsigned long long>(
                      options.crawl->query_budget),
                  static_cast<unsigned long long>(run.merged.steps));
    }
  }
  return 0;
}

int CmdQuery(const grw::Flags& flags) {
  const std::string host = flags.GetString("host", "127.0.0.1");
  const int64_t port = flags.GetInt("port", 7411);
  if (port < 1 || port > 65535) {
    throw std::runtime_error("--port must be in [1, 65535]");
  }

  std::string line = flags.GetString("send", "");
  const bool passthrough = flags.Has("send");
  if (!passthrough) {
    if (flags.positional().size() < 2) return Usage();
    // The line `grw estimate` runs locally, plus the serve-only fields.
    line = grw::serve::EstimateRequestLine(flags, flags.positional()[1]);
    if (flags.Has("deadline-ms")) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    flags.GetDouble("deadline-ms", 0.0));
      line += std::string(" deadline_ms=") + buf;
    }
    if (flags.Has("tenant")) {
      line += " tenant=" + flags.GetString("tenant", "");
    }
  }

  // Bounded waits by default: a hung daemon yields an error, not a
  // wedged CLI. -1 restores the old wait-forever behavior.
  grw::serve::QueryClient::Options client_options;
  client_options.connect_timeout_ms =
      flags.GetInt32("connect-timeout-ms", client_options.connect_timeout_ms);
  client_options.read_timeout_ms =
      flags.GetInt32("read-timeout-ms", client_options.read_timeout_ms);
  grw::serve::RetryPolicy policy;
  policy.max_retries = flags.GetInt32("retries", policy.max_retries);
  if (policy.max_retries < 0) {
    throw std::runtime_error("--retries must be >= 0");
  }

  // Transport failures reconnect and resend; RETRY_AFTER load sheds back
  // off per the server's hint. Any other error response is final.
  const grw::serve::QueryOutcome outcome = grw::serve::QueryWithRetry(
      host, static_cast<int>(port), line, client_options, policy);
  if (outcome.transport_error) {
    std::string what = outcome.error;
    if (outcome.retries > 0) {
      what += " (after " + std::to_string(outcome.attempts) + " attempts)";
    }
    throw std::runtime_error(what);
  }
  const std::string& response = outcome.response;
  const auto parsed = grw::serve::ParseJson(response);

  if (passthrough) {
    // Raw protocol passthrough: echo the response line verbatim; the
    // exit code still reflects the `ok` field for scripting.
    std::printf("%s\n", response.c_str());
    const grw::serve::JsonValue* ok = parsed ? parsed->Find("ok") : nullptr;
    return ok != nullptr && ok->IsTrue() ? 0 : 1;
  }
  if (!parsed) {
    throw std::runtime_error("unparseable response: " + response);
  }
  const grw::serve::JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->IsTrue()) {
    const grw::serve::JsonValue* err = parsed->Find("error");
    std::fprintf(stderr, "server error: %s\n",
                 err != nullptr && !err->str.empty() ? err->str.c_str()
                                                     : response.c_str());
    return 1;
  }
  const grw::serve::JsonValue* labels = parsed->Find("labels");
  const grw::serve::JsonValue* conc = parsed->Find("concentrations");
  if (labels == nullptr || conc == nullptr ||
      labels->items.size() != conc->items.size()) {
    throw std::runtime_error("malformed response: " + response);
  }

  if (flags.GetBool("raw")) {
    // Echo the server's number *bytes* (the parser keeps the raw text):
    // no reformatting means this diffs clean against `estimate --raw`.
    for (size_t i = 0; i < labels->items.size(); ++i) {
      std::printf("%s %s\n", labels->items[i].str.c_str(),
                  conc->items[i].raw.c_str());
    }
    return 0;
  }

  const auto num = [&parsed](const char* key, double fallback) {
    const grw::serve::JsonValue* v = parsed->Find(key);
    return v != nullptr && v->type == grw::serve::JsonValue::Type::kNumber
               ? v->number
               : fallback;
  };
  const grw::serve::JsonValue* method = parsed->Find("method");
  const int k = static_cast<int>(num("k", 0));
  std::string title =
      (method != nullptr ? method->str : std::string("estimate")) + ", " +
      std::to_string(static_cast<long long>(num("steps_per_chain", 0))) +
      " steps x " +
      std::to_string(static_cast<long long>(num("chains", 1))) +
      " chain(s), served in " + grw::Table::Duration(num("seconds", 0.0));
  const grw::serve::JsonValue* cancelled = parsed->Find("cancelled");
  if (cancelled != nullptr && cancelled->IsTrue()) {
    title += ", deadline cancelled";
  }
  const grw::serve::JsonValue* exhausted = parsed->Find("budget_exhausted");
  if (exhausted != nullptr && exhausted->IsTrue()) {
    title += ", budget exhausted";
  }
  grw::Table table(title);
  table.SetHeader({"graphlet", "name", "estimated concentration"});
  const bool have_catalog = k >= 3 && k <= grw::kMaxGraphletSize;
  const auto* order = have_catalog ? &grw::PaperOrder(k) : nullptr;
  for (size_t i = 0; i < labels->items.size(); ++i) {
    std::string name = "-";
    if (have_catalog && i < order->size()) {
      name = grw::GraphletCatalog::ForSize(k)
                 .Get((*order)[i])
                 .name;
    }
    table.AddRow({labels->items[i].str, name,
                  grw::Table::Sci(conc->items[i].number)});
  }
  table.Print();
  if (parsed->Find("distinct_queries") != nullptr) {
    std::printf("crawl cost: %llu distinct queries (%llu fetches)\n",
                static_cast<unsigned long long>(num("distinct_queries", 0)),
                static_cast<unsigned long long>(num("fetches", 0)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const grw::Flags flags(argc, argv);
  const std::string& cmd = flags.positional().empty()
                               ? std::string()
                               : flags.positional()[0];
  try {
    if (cmd == "datasets") return CmdDatasets();
    if (cmd == "generate") return CmdGenerate(flags);
    if (cmd == "convert") return CmdConvert(flags);
    if (cmd == "shard") return CmdShard(flags);
    if (cmd == "info") return CmdInfo(flags);
    if (cmd == "exact") return CmdExact(flags);
    if (cmd == "estimate") return CmdEstimate(flags);
    if (cmd == "query") return CmdQuery(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}
