// bench_e2e: time-to-answer benchmark of the grw estimation stack.
//
//   bench_e2e prepare --work-dir DIR --seed N [--smoke]
//       Generates (or finds cached) the fixture for seed N: Holme–Kim
//       graph, `.grwb` snapshot, sharded copy, exact 4-node truth.
//   bench_e2e run --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--smoke] [--trace-file PATH]
//       Measures one workload on the prepared fixture for S seconds and
//       prints its metrics, one `name value unit ...` line each, then one
//       JSON object as the last line of stdout:
//       {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//       Exits 1 when any correctness check failed.
//
// e2ebench/run.py builds this binary and drives it; see README.md.

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "util/flags.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e prepare --work-dir DIR --seed N [--smoke]\n"
               "       bench_e2e run --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--smoke] [--trace-file PATH]\n");
  return 2;
}

void PrintJson(const e2e::Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  const auto& metrics = report.metrics();
  for (size_t i = 0; i < metrics.size(); ++i) {
    // %.17g keeps every digit; a non-finite value is not JSON and means a
    // broken measurement, so it is written as null and fails the run.
    char value[40];
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const grw::Flags& flags) {
  e2e::RunOptions opt;
  opt.seed = flags.GetUInt64("seed", 7);
  opt.seconds = flags.GetDouble("seconds", 10.0);
  opt.trace_file = flags.GetString("trace-file", "");
  const bool trace = flags.GetInt32("trace", 0) != 0;
  const bool smoke = flags.GetBool("smoke");
  const std::string name = flags.GetString("workload", "");
  const std::string work_dir = flags.GetString("work-dir", "");
  if (work_dir.empty() || !(opt.seconds > 0.0)) return Usage();

  const e2e::Workload* workload = nullptr;
  const std::vector<e2e::Workload> all = e2e::Workloads(smoke);
  for (const e2e::Workload& w : all) {
    if (w.name == name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n", name.c_str());
    return Usage();
  }

  const e2e::Fixture fixture = e2e::LoadFixture(
      work_dir, e2e::DefaultFixtureSpec(smoke), opt.seed);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d fixture=%s\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              trace ? 1 : 0, fixture.dir.c_str());
  e2e::Report report;
  if (trace) {
    e2e::RunTracedWorkload(*workload, fixture, opt, report);
  } else if (workload->access == e2e::Access::kServe) {
    e2e::RunServeWorkload(*workload, fixture, opt, report);
  } else {
    e2e::RunEngineWorkload(*workload, fixture, opt, report);
  }
  for (const e2e::Metric& m : report.metrics()) {
    report.Check(std::isfinite(m.value), "metric " + m.name + " is finite");
  }
  PrintJson(report);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  if (flags.positional().size() != 1) return Usage();
  const std::string command = flags.positional()[0];
  try {
    if (command == "prepare") {
      const std::string work_dir = flags.GetString("work-dir", "");
      if (work_dir.empty()) return Usage();
      const e2e::Fixture f = e2e::PrepareFixture(
          work_dir, e2e::DefaultFixtureSpec(flags.GetBool("smoke")),
          flags.GetUInt64("seed", 7));
      std::fprintf(stderr, "[bench_e2e] fixture ready: %s\n", f.dir.c_str());
      return 0;
    }
    if (command == "run") return Run(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  return Usage();
}
