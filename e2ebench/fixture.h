// The benchmark's input graph, generated from the run seed and cached on
// disk so no run times its construction.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Shape of the generated Holme–Kim graph and its sharded copy.
struct FixtureSpec {
  uint32_t nodes = 250'000;
  uint32_t edges_per_node = 5;
  double triad_prob = 0.5;
  /// Degree cap (the generator's friend-count limit). Without it the
  /// largest hubs — whose degree varies widely from one seed to the next
  /// — dominate the cost of a G(d) walk step, and the benchmark would
  /// measure which seed it drew more than the code.
  uint32_t max_degree = 500;
  uint32_t shards = 16;
};

/// The full-size fixture, or a small one for --smoke runs.
FixtureSpec DefaultFixtureSpec(bool smoke);

/// One cached fixture: the largest connected component of the generated
/// graph, relabeled by degree, stored as one `.grwb` snapshot and as a
/// sharded copy, plus its exact 4-node graphlet concentrations.
struct Fixture {
  std::string dir;
  std::string grwb_path;
  std::string shards_path;
  /// Exact k = 4 concentrations, indexed by catalog id.
  std::vector<double> exact4;
};

/// Returns the fixture for (spec, seed) under work_dir, generating it
/// first when absent. Generation writes into a temporary directory and
/// renames it into place, so a killed run never leaves a half-written
/// fixture behind; older fixtures beyond a small cache are deleted.
Fixture PrepareFixture(const std::string& work_dir, const FixtureSpec& spec,
                       uint64_t seed);

/// The already-prepared fixture for (spec, seed); throws
/// std::runtime_error when it is missing.
Fixture LoadFixture(const std::string& work_dir, const FixtureSpec& spec,
                    uint64_t seed);

}  // namespace e2e
