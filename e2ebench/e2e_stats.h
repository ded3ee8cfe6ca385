// Measurement helpers shared by the end-to-end benchmark: order
// statistics, a tail percentile that refuses to report on thin data, CPU
// clocks, the process's peak RSS, and an in-memory span recorder.

#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sample count, median and quartiles of a sample.
struct Summary {
  size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the same rule as Python's statistics.quantiles(v, n=4)
/// (the "exclusive" method), so the numbers printed here and the ones a
/// script computes from them agree. One sample is its own quartiles.
inline Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    s.median = s.q1 = s.q3 = v[0];
    return s;
  }
  const auto quartile = [&v](int64_t i) {
    const auto n = static_cast<int64_t>(v.size());
    const int64_t m = n + 1;
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.median = quartile(2);
  s.q3 = quartile(3);
  return s;
}

inline double Median(std::vector<double> v) {
  return Summarize(std::move(v)).median;
}

/// The p-th percentile (nearest rank, p in (0, 1)), reported only when at
/// least 10 samples lie above it: with fewer, a "p99" is just the worst
/// few requests and says nothing stable about the tail.
inline std::optional<double> TailPercentile(std::vector<double> v, double p) {
  constexpr size_t kMinBeyond = 10;
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  if (v.size() - 1 - idx < kMinBeyond) return std::nullopt;
  return v[idx];
}

/// CPU time (user + system) of every thread this process has run,
/// seconds. Unlike wall time it does not grow while the hypervisor runs
/// another tenant on our CPUs (steal), which on shared hosts moves wall
/// time by tens of percent from one minute to the next.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of the calling thread, seconds.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// High-water resident set size of this process, MiB.
inline double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Spans recorded around the benchmark's calls into each layer, kept in
/// memory and written as JSON lines at exit. Only traced runs create one.
class Tracer {
 public:
  struct Span {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent = 0;  // 0 = root
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  uint64_t NewTrace() { return ++last_trace_; }
  uint64_t ReserveId() { return ++last_span_; }

  /// Records a finished span under a reserved id.
  void Record(uint64_t trace_id, uint64_t span_id, uint64_t parent,
              std::string name, int64_t start_ns, int64_t end_ns) {
    spans_.push_back(
        {trace_id, span_id, parent, std::move(name), start_ns, end_ns});
  }

  /// Times one call: the span starts at construction and is recorded at
  /// destruction. Children pass id() as their parent.
  class Scope {
   public:
    Scope(Tracer& tracer, uint64_t trace_id, uint64_t parent,
          std::string name)
        : tracer_(tracer),
          trace_id_(trace_id),
          parent_(parent),
          id_(tracer.ReserveId()),
          name_(std::move(name)),
          start_(NowNs()) {}
    ~Scope() {
      tracer_.Record(trace_id_, id_, parent_, std::move(name_), start_,
                     NowNs());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    uint64_t trace_id_;
    uint64_t parent_;
    uint64_t id_;
    std::string name_;
    int64_t start_;
  };

  /// Self time of each span named `name`, in nanoseconds: the span's
  /// duration minus the part of it its children cover.
  std::vector<double> SelfNs(const std::string& name) const {
    std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span& s : spans_) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      int64_t covered = 0;
      auto it = children.find(s.span_id);
      if (it != children.end()) {
        std::vector<std::pair<int64_t, int64_t>> iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t cursor = s.start_ns;
        for (auto [a, b] : iv) {
          a = std::max(a, cursor);
          b = std::min(b, s.end_ns);
          if (b > a) {
            covered += b - a;
            cursor = b;
          }
        }
      }
      out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered));
    }
    return out;
  }

  /// Full duration of each span named `name`, in nanoseconds.
  std::vector<double> DurationNs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  /// One JSON object per line: {trace_id, span_id, parent, name,
  /// start_ns, end_ns}. Names are benchmark-chosen identifiers (no
  /// characters that need escaping).
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"trace_id\": %llu, \"span_id\": %llu, \"parent\": %llu, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   static_cast<unsigned long long>(s.trace_id),
                   static_cast<unsigned long long>(s.span_id),
                   static_cast<unsigned long long>(s.parent), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  uint64_t last_trace_ = 0;
  uint64_t last_span_ = 0;
  std::vector<Span> spans_;
};

}  // namespace e2e
