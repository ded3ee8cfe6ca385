#include "fixture.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "exact/exact.h"
#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/sharding.h"
#include "util/rng.h"

namespace e2e {

namespace fs = std::filesystem;

namespace {

// Fixtures kept in the work directory. Each full-size one is ~23 MiB; a
// caller cycling through ten seeds reuses all of them.
constexpr size_t kCachedFixtures = 12;

std::string FixtureDir(const std::string& work_dir, const FixtureSpec& spec,
                       uint64_t seed) {
  char key[160];
  std::snprintf(key, sizeof(key), "hk_n%u_m%u_t%.3f_d%u_s%u_seed%llu",
                spec.nodes, spec.edges_per_node, spec.triad_prob,
                spec.max_degree, spec.shards,
                static_cast<unsigned long long>(seed));
  return (fs::path(work_dir) / key).string();
}

Fixture Paths(const std::string& dir) {
  Fixture f;
  f.dir = dir;
  f.grwb_path = (fs::path(dir) / "graph.grwb").string();
  f.shards_path = (fs::path(dir) / "shards").string();
  return f;
}

void Generate(const std::string& dir, const FixtureSpec& spec,
              uint64_t seed) {
  fs::create_directories(dir);
  grw::Rng rng(grw::DeriveSeed(seed, 0xF1C7));
  const grw::Graph raw =
      grw::HolmeKim(spec.nodes, spec.edges_per_node, spec.triad_prob, rng,
                    spec.max_degree);
  const grw::Graph g =
      grw::RelabelByDegree(grw::LargestConnectedComponent(raw));
  const Fixture f = Paths(dir);
  grw::SaveGraphBinary(g, f.grwb_path, grw::kGrwbFlagDegreeRelabeled);
  grw::ShardingOptions sharding;
  sharding.num_shards = spec.shards;
  sharding.flags = grw::kGrwbFlagDegreeRelabeled;
  grw::WriteShardedGraph(g, f.shards_path, sharding);
  // Straight from src/exact: the eval layer's ground-truth cache would
  // write into the current directory.
  std::ofstream out(fs::path(dir) / "exact4.txt");
  for (const double c : grw::ExactConcentrations(g, 4)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g\n", c);
    out << buf;
  }
  if (!out) throw std::runtime_error("cannot write exact4.txt in " + dir);
}

void EvictOldFixtures(const std::string& work_dir, const std::string& keep) {
  std::vector<std::pair<fs::file_time_type, fs::path>> dirs;
  for (const auto& entry : fs::directory_iterator(work_dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() && name.rfind("hk_", 0) == 0 &&
        entry.path().string() != keep) {
      dirs.emplace_back(entry.last_write_time(), entry.path());
    }
  }
  if (dirs.size() < kCachedFixtures) return;
  std::sort(dirs.begin(), dirs.end());
  for (size_t i = 0; i + kCachedFixtures <= dirs.size(); ++i) {
    fs::remove_all(dirs[i].second);
  }
}

}  // namespace

FixtureSpec DefaultFixtureSpec(bool smoke) {
  FixtureSpec spec;
  if (smoke) {
    spec.nodes = 20'000;
    spec.shards = 8;
  }
  return spec;
}

Fixture PrepareFixture(const std::string& work_dir, const FixtureSpec& spec,
                       uint64_t seed) {
  const std::string dir = FixtureDir(work_dir, spec, seed);
  if (!fs::exists(fs::path(dir) / "exact4.txt")) {
    fs::create_directories(work_dir);
    const std::string tmp = dir + ".tmp." + std::to_string(::getpid());
    fs::remove_all(tmp);
    Generate(tmp, spec, seed);
    fs::remove_all(dir);
    fs::rename(tmp, dir);
  }
  fs::last_write_time(dir, fs::file_time_type::clock::now());
  EvictOldFixtures(work_dir, dir);
  return LoadFixture(work_dir, spec, seed);
}

Fixture LoadFixture(const std::string& work_dir, const FixtureSpec& spec,
                    uint64_t seed) {
  Fixture f = Paths(FixtureDir(work_dir, spec, seed));
  std::ifstream in(fs::path(f.dir) / "exact4.txt");
  if (!in) {
    throw std::runtime_error("fixture " + f.dir +
                             " is missing; run `bench_e2e prepare` first");
  }
  for (double c; in >> c;) f.exact4.push_back(c);
  return f;
}

}  // namespace e2e
