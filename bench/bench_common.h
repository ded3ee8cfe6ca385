// Shared plumbing for the table/figure harness binaries.
//
// Common flags across harnesses:
//   --steps N     random walk steps per chain (default: per-bench)
//   --sims N      independent chains per data point
//   --scale S     dataset scale factor in (0, 1]
//   --paper       run at published scale (1,000 sims etc.)
//   --csv PATH    mirror the main table to a CSV file
//   --json PATH   write machine-readable results (the BENCH_*.json perf
//                 trajectory format: one object with a flat metric list)
//   --graph PATH  replace the synthetic datasets with a real graph file
//                 (text edge list or .grwb binary snapshot, auto-detected
//                 via GraphSource::Open; convert once with `grw convert`
//                 so repeated bench runs mmap the CSR instead of
//                 re-parsing text). Sharded manifests are rejected here —
//                 the table harnesses need the whole graph resident; use
//                 bench/bench_sharded.cpp for out-of-core measurements.

#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "eval/datasets.h"
#include "eval/ground_truth.h"
#include "graph/graph.h"
#include "graph/source.h"
#include "serve/json.h"
#include "util/flags.h"
#include "util/table.h"

namespace grw::bench {

/// A named graph plus its ground-truth cache key.
struct BenchGraph {
  std::string name;
  Graph graph;
  std::string cache_key;
};

/// Loads either the --graph override (one real edge list) or all registry
/// datasets up to `max_tier` at --scale.
inline std::vector<BenchGraph> LoadBenchGraphs(const Flags& flags,
                                               DatasetTier max_tier,
                                               double default_scale = 1.0) {
  std::vector<BenchGraph> graphs;
  const std::string path = flags.GetString("graph", "");
  if (!path.empty()) {
    BenchGraph bg;
    bg.name = path;
    bg.graph = GraphSource::Open(path).graph();
    // Real files get a key derived from their shape.
    bg.cache_key = "file_n" + std::to_string(bg.graph.NumNodes()) + "_m" +
                   std::to_string(bg.graph.NumEdges());
    graphs.push_back(std::move(bg));
    return graphs;
  }
  const double scale = flags.GetDouble("scale", default_scale);
  for (const std::string& name : DatasetNames(max_tier)) {
    BenchGraph bg;
    bg.name = name;
    bg.graph = MakeDatasetByName(name, scale);
    bg.cache_key = DatasetCacheKey(name, scale);
    std::fprintf(stderr, "[bench] %s: %s\n", name.c_str(),
                 bg.graph.Summary().c_str());
    graphs.push_back(std::move(bg));
  }
  return graphs;
}

/// Simulation count: --sims override, else paper scale (1000) with
/// --paper, else the bench default.
inline int SimCount(const Flags& flags, int default_sims,
                    int paper_sims = 1000) {
  if (flags.Has("sims")) return flags.GetInt32("sims", 0);
  return flags.GetBool("paper") ? paper_sims : default_sims;
}

/// Writes the CSV mirror if --csv was given.
/// Linearly interpolated q-quantile of a non-empty sample (q = 0.5 is
/// the median, 0.25 / 0.75 the quartiles).
inline double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline void MaybeWriteCsv(const Flags& flags, const Table& table) {
  const std::string csv = flags.GetString("csv", "");
  if (!csv.empty()) {
    if (table.WriteCsv(csv)) {
      std::printf("csv written to %s\n", csv.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", csv.c_str());
    }
  }
}

/// One machine-readable benchmark metric.
struct JsonMetric {
  std::string name;   // snake_case metric id, stable across PRs
  double value = 0.0;
  std::string unit;   // e.g. "ns/query", "steps/s", "x"
};

/// Writes the standardized benchmark JSON: a single object with the bench
/// id, free-form context (graph summary etc.) and a flat metric list.
/// This is the format of the repo-root BENCH_*.json perf-trajectory files;
/// keeping metric names stable lets successive PRs be diffed/plotted.
inline bool WriteBenchJson(const std::string& path, const std::string& bench,
                           const std::string& context,
                           const std::vector<JsonMetric>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": %s,\n  \"context\": %s,\n"
               "  \"metrics\": [\n",
               serve::JsonQuote(bench).c_str(),
               serve::JsonQuote(context).c_str());
  for (size_t i = 0; i < metrics.size(); ++i) {
    // inf/nan are not valid JSON numbers; emit null so a division blowup
    // in one metric cannot make the whole trajectory file unparseable.
    char value[40];
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof(value), "%.6g", metrics[i].value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    std::fprintf(f, "    {\"name\": %s, \"value\": %s, \"unit\": %s}%s\n",
                 serve::JsonQuote(metrics[i].name).c_str(), value,
                 serve::JsonQuote(metrics[i].unit).c_str(),
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

/// Lowercases and squeezes a table label into a snake_case metric-name
/// fragment: "p99 ms" -> "p99_ms", "NRMSE (%)" -> "nrmse".
inline std::string MetricNameFragment(const std::string& label) {
  std::string out;
  for (char c : label) {
    const char lc = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
    if ((lc >= 'a' && lc <= 'z') || (lc >= '0' && lc <= '9') || lc == '.') {
      out += lc;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

/// Derives JSON metrics from a rendered table: every numeric cell becomes
/// one metric named `<row-label>_<col-label>` (snake_case, first column is
/// the row label). Non-numeric cells ("19.4 ms", "--", dataset names) are
/// skipped — the strict ParseDouble decides, so a formatted duration never
/// sneaks in as a bogus number. Lets the table-regenerating benches mirror
/// their whole table into the BENCH_*.json trajectory format without
/// hand-listing each metric.
inline void AppendTableMetrics(const Table& table,
                               std::vector<JsonMetric>* metrics,
                               const std::string& prefix = "") {
  const std::vector<std::string>& header = table.header();
  for (const std::vector<std::string>& row : table.rows()) {
    if (row.empty()) continue;
    const std::string row_name = MetricNameFragment(row[0]);
    for (size_t col = 1; col < row.size() && col < header.size(); ++col) {
      const std::optional<double> v = ParseDouble(row[col]);
      if (!v.has_value()) continue;
      JsonMetric m;
      m.name = prefix;
      if (!row_name.empty()) m.name += row_name + "_";
      m.name += MetricNameFragment(header[col]);
      m.value = *v;
      metrics->push_back(std::move(m));
    }
  }
}

/// Writes the JSON mirror if --json was given.
inline void MaybeWriteJson(const Flags& flags, const std::string& bench,
                           const std::string& context,
                           const std::vector<JsonMetric>& metrics) {
  const std::string path = flags.GetString("json", "");
  if (path.empty()) return;
  if (WriteBenchJson(path, bench, context, metrics)) {
    std::printf("json written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
  }
}

}  // namespace grw::bench
