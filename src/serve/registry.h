// Resident snapshot registry: the storage layer of the estimation
// service.
//
// `grw serve` answers queries for many graphs from one process. Every
// binding is opened through GraphSource::Open (graph/source.h) — the one
// open path shared with the CLI and benches — so the registry serves all
// three storage kinds with the same code: text edge lists (parsed once),
// monolithic `.grwb` snapshots (one mmap, pages fault on demand), and
// sharded graphs (copied into one in-memory Graph with no budget, or a
// ShardStore whose readers read through fixed-size neighbor-list caches
// under a budget above 0). Resident state is shared:
//
//   * bindings are keyed by (path, content checksum, sharded budget):
//     two ids registered over the same bytes share ONE GraphSource — one
//     mapping, one copy or one ShardStore (one charge across every
//     request's readers) — so multi-tenant aliases of a popular graph
//     cost nothing extra;
//   * lookups return a GraphSource *copy* (shared backing): a request
//     keeps its graph alive even if the id is replaced mid-run.
//
// Thread-safe: registration and lookup take one mutex; the returned
// sources are immutable shared state.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/source.h"
#include "serve/protocol.h"
#include "util/sync.h"

namespace grw::serve {

class SnapshotRegistry {
 public:
  /// Opens `path` via GraphSource::Open and registers it under `id`,
  /// replacing any previous binding of the id. Re-registering unchanged
  /// content (same path, checksum and sharded budget) reuses the resident
  /// source; changed content loads fresh. Text edge lists have checksum 0
  /// and are never shared by key.
  ///
  /// With `verify` (the default), snapshot payloads are fully validated
  /// at registration — data checksums, offsets monotonicity, neighbor-id
  /// bounds, per shard for sharded graphs — so a daemon never serves
  /// estimates from a silently corrupted snapshot; a mismatch throws
  /// SnapshotCorruptError naming the offending file and the id stays
  /// unbound (the caller quarantines: skip the binding, keep the file
  /// for inspection). `resident_budget_bytes` is OpenOptions' (0 copies
  /// a sharded graph into memory, in O(size) time and anonymous memory).
  /// Throws std::runtime_error on other load failures.
  void Register(const std::string& id, const std::string& path,
                bool verify = true, uint64_t resident_budget_bytes = 0)
      GRW_EXCLUDES(mu_);

  /// Registers an in-memory graph (tests, the bench load generator).
  void RegisterGraph(const std::string& id, Graph graph,
                     const std::string& label = "<memory>")
      GRW_EXCLUDES(mu_);

  /// The source bound to `id`, as a cheap copy sharing its mapping or
  /// store; nullopt for unknown ids. The scheduler dispatches on
  /// sharded(): sources read through a Graph run the full-access engine,
  /// sources read through a ShardStore the out-of-core one.
  std::optional<GraphSource> FindSource(const std::string& id) const
      GRW_EXCLUDES(mu_);

  /// LIST-able view of every binding, in id order.
  std::vector<GraphListEntry> List() const GRW_EXCLUDES(mu_);

  size_t size() const GRW_EXCLUDES(mu_);

 private:
  /// The resident source for a ContentKey (registry.cpp), nullptr if
  /// none. REQUIRES-checked so the register paths — which already hold
  /// mu_ when they consult residency — cannot re-lock (grw::Mutex is
  /// non-recursive; a second Lock() would be a self-deadlock, caught at
  /// compile time by the annotation and at runtime by the owner check).
  const GraphSource* FindResidentLocked(const std::string& content_key)
      const GRW_REQUIRES(mu_);

  // Lock discipline: mu_ guards both maps; it is held only for map
  // lookups/inserts, never across a snapshot load (Register parses /
  // mmaps outside the lock so a slow registration cannot block lookups).
  mutable Mutex mu_;
  std::map<std::string, GraphSource> entries_
      GRW_GUARDED_BY(mu_);  // id -> binding
  // ContentKey -> resident source, for cross-id sharing of identical
  // snapshots. Never pruned: entries are one shared-backing copy each and
  // a daemon registers a bounded set of graphs.
  std::map<std::string, GraphSource> by_content_ GRW_GUARDED_BY(mu_);
};

}  // namespace grw::serve
