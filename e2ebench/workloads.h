// Workloads of the end-to-end benchmark and the report every run fills.
//
// A run measures one workload for a fixed number of seconds and reports
// either its end-to-end metrics (untraced) or its per-layer metrics
// (traced), plus how many correctness checks it attempted and how many
// failed. See README.md for why each workload exists.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "e2e_stats.h"
#include "engine/engine.h"
#include "fixture.h"
#include "graph/source.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace e2e {

/// Engine threads every workload runs with (the benchmark host's core
/// count; the load generator of serve-mix also stays within it).
inline constexpr unsigned kThreads = 4;

enum class Access { kGraph, kCrawl, kSharded, kServe };

struct Workload {
  std::string name;
  Access access = Access::kGraph;
  /// The ESTIMATE request of one answer, without its seed (for serve-mix:
  /// its small request class). Its estimator configuration is also the
  /// one the traced run replays.
  std::string request;
  /// Sharded storage only: resident budget as a share of all shard bytes.
  double resident_fraction = 0.0;
  /// Traced runs: walk steps of each one-chain replay.
  uint64_t replay_steps = 0;
  /// Traced runs: the short request the serve-path probe sends.
  std::string probe;
};

/// The four workloads, sized for a full run or for --smoke.
std::vector<Workload> Workloads(bool smoke);

struct RunOptions {
  uint64_t seed = 7;
  double seconds = 10.0;
  std::string trace_file;  // JSON-lines span dump (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one attempted operation or correctness check; a false `ok`
  /// counts as failed and is described on stderr.
  void Check(bool ok, const std::string& what);
  /// Counts `n` operations of which `failed` failed.
  void Count(uint64_t n, uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Seed of answer `i` in a run: derived from the run seed, kept within
/// the protocol's non-negative 63-bit range.
uint64_t AnswerSeed(uint64_t run_seed, uint64_t i);

/// The request line of answer `i` of workload `w` in a run.
std::string AnswerLine(const Workload& w, uint64_t run_seed, uint64_t i);

/// Parses an ESTIMATE line, filling in the CLI's defaults; throws
/// std::invalid_argument on a malformed line.
grw::serve::EstimateRequest ParseEstimate(const std::string& line);

/// Engine options for one answer: the protocol's mapping (so round
/// slicing matches `grw estimate` and `grw_serve`) on kThreads threads.
grw::EngineOptions AnswerOptions(const grw::serve::EstimateRequest& req);

/// One engine run over either storage kind.
grw::EngineResult RunEngine(const grw::GraphSource& source,
                            const grw::serve::EstimateRequest& req,
                            grw::EngineOptions options);

/// True iff two estimates are bit-identical (weights, sample counts,
/// steps).
bool SameEstimate(const grw::EstimateResult& a, const grw::EstimateResult& b);

/// Runs teardown (untimed) then setup, at least 5 times and for at least
/// half a second, and returns the CPU seconds of each setup.
std::vector<double> MeasureSetups(const std::function<void()>& setup,
                                  const std::function<void()>& teardown);

/// Human-readable result lines: `name value unit ...`.
void PrintSummary(const std::string& name, const Summary& s,
                  const std::string& unit);
void PrintValue(const std::string& name, double value,
                const std::string& unit, const std::string& note);

/// Opens the workload's storage the way `grw estimate` does; the sharded
/// kind gets its resident budget.
grw::GraphSource OpenForWorkload(const Workload& w, const Fixture& f);

/// Untraced run of an engine workload (in-memory, crawl, sharded).
void RunEngineWorkload(const Workload& w, const Fixture& f,
                       const RunOptions& opt, Report& report);

/// Untraced run of the serve workload.
void RunServeWorkload(const Workload& w, const Fixture& f,
                      const RunOptions& opt, Report& report);

/// Traced run of any workload: per-layer metrics from spans around the
/// benchmark's calls into each layer.
void RunTracedWorkload(const Workload& w, const Fixture& f,
                       const RunOptions& opt, Report& report);

/// The serve-mix traffic: 80% small requests (k=3, 2000 steps) and 20%
/// medium ones (k=4, 20000 steps, 2 chains), each class drawing its seed
/// from a fixed set of 8 derived from the run seed.
struct ServeMix {
  std::vector<std::string> lines;  // the 16 distinct request lines
  /// A request class draw: index into `lines`.
  size_t Draw(uint64_t random) const;
};
ServeMix MakeServeMix(uint64_t run_seed);

/// A serve response with its wall-time field removed: everything left is
/// a deterministic function of the request and must match byte for byte.
std::string WithoutTiming(const std::string& response);

/// The in-process service: the fixture's `.grwb` registered as "g" (with
/// verification and index, as grw_serve does) behind a loopback TCP
/// server with one scheduler worker per load-generator connection.
class ServeStack {
 public:
  explicit ServeStack(const Fixture& f);
  grw::serve::SnapshotRegistry& registry() { return registry_; }
  grw::serve::ServeServer& server() { return server_; }

 private:
  grw::serve::SnapshotRegistry registry_;  // outlives server_
  grw::serve::ServeServer server_;
};

/// What the service must answer for each request line: the direct
/// engine run's response (timing stripped) and its walk steps.
struct ExpectedAnswers {
  std::vector<std::string> response;
  std::vector<uint64_t> steps;
};
ExpectedAnswers DirectAnswers(const grw::GraphSource& source,
                              const std::vector<std::string>& lines);

}  // namespace e2e
