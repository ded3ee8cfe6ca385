// GraphSource: the ONE way to open a graph, whatever is on disk. The CLI,
// the serve registry and the bench harnesses all open through
// GraphSource::Open, which sniffs the path and dispatches to
//
//   text edge list       -> LoadEdgeList (optionally largest CC) — an
//                           in-memory Graph;
//   monolithic `.grwb`   -> one mapping, validated once — a zero-copy
//                           mmap'd Graph;
//   sharded manifest     -> LoadShardManifest, then with no budget one
//      (file or its dir)    in-memory Graph copied from every shard
//                           (O(size) time and anonymous memory at open,
//                           so a graph larger than RAM needs a budget),
//                           or with one a ShardStore read out of core.
//
// kind() names the storage; sharded() says reads go through shards()
// (which the engine drives through ShardedAccess), not graph(). Call
// sites that cannot serve out-of-core graphs reject sharded() sources
// with their own message instead of crashing.
//
// GraphSource is a cheap value: copies share the underlying mapping /
// store (shared_ptr), exactly like copying a Graph. Corruption anywhere
// — monolithic or per shard — throws the same typed SnapshotCorruptError
// with a path-qualified message, so quarantine call sites (grw_serve)
// handle every layout with one catch. There is no other loader: the
// `.grwb` mapping code is a private member, so nothing bypasses Open.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "graph/graph.h"
#include "graph/sharded_access.h"
#include "graph/sharding.h"

namespace grw {

enum class GraphSourceKind {
  kText,     // parsed edge list, in-memory CSR
  kBinary,   // monolithic .grwb, zero-copy mmap
  kSharded,  // manifest + shard files, copied at open or read through caches
};

/// Knobs of GraphSource::Open. Fields apply to the kinds noted; the rest
/// ignore them, so one options struct can serve a path of unknown kind.
struct OpenOptions {
  /// Build and attach the AdjacencyIndex (monolithic kinds only). Off:
  /// every open path reads by binary search. The index's only remaining
  /// users are the per-layer benchmark (e2ebench/layers.cpp, the one
  /// reader of this field), its two micro benches and its own tests.
  bool build_index = false;
  /// Full payload validation: data checksum + structural scan for
  /// `.grwb`, per-shard checksums + scans for sharded. Costs a full read
  /// of every byte — for untrusted files and registration paths.
  bool verify = false;
  /// Text kind only: restrict to the largest connected component (the
  /// walk theory assumes a connected graph). Snapshots were simplified
  /// at convert time.
  bool largest_cc = true;
  /// Sharded kind only: > 0 reads through a ShardStore with this budget;
  /// 0 copies every shard into one in-memory Graph at open, in O(size)
  /// time and anonymous memory.
  uint64_t resident_budget_bytes = 0;
};

/// An opened graph of any storage kind. Cheap to copy; copies share the
/// backing (mapping or store).
class GraphSource {
 public:
  GraphSource() = default;

  /// Opens `path`, auto-detecting the kind: a directory or a file with
  /// the manifest magic is sharded, the `.grwb` magic is monolithic
  /// binary, anything else parses as a text edge list. Throws
  /// SnapshotCorruptError for corrupt snapshots/shards (quarantineable),
  /// std::runtime_error for plain I/O failures.
  static GraphSource Open(const std::string& path,
                          const OpenOptions& options = {});

  /// Wraps an already-built in-memory graph (datasets, generators,
  /// tests) so registry/engine plumbing can stay kind-agnostic.
  static GraphSource FromGraph(Graph g, const std::string& label = "<memory>");

  GraphSourceKind kind() const { return kind_; }
  /// True iff reads go through shards(): sharded, opened with a budget.
  bool sharded() const { return store_ != nullptr; }

  /// The resident graph. Throws std::logic_error for sharded() sources —
  /// there is deliberately no "load it all anyway" escape hatch here;
  /// out-of-core callers go through shards().
  const Graph& graph() const;

  /// The shard store (sharded() only; std::logic_error otherwise).
  const ShardStore& shards() const;

  VertexId NumNodes() const;
  uint64_t NumEdges() const;

  /// Content identity: the snapshot's data checksum (`.grwb` header),
  /// the manifest's shard-table checksum (sharded), or 0 (text /
  /// in-memory — parsed content has no stored checksum). The serve
  /// registry keys resident sharing on (path, checksum).
  uint64_t content_checksum() const { return checksum_; }

  /// True when the stored graph was degree-relabeled at convert time.
  bool degree_relabeled() const { return relabeled_; }

  /// The path given to Open (or the FromGraph label).
  const std::string& path() const { return path_; }

  /// One-line summary, e.g. "n=75879 m=405740 kind=sharded shards=8".
  std::string Summary() const;

 private:
  /// Open's `.grwb` branch (format.cpp): maps `path` once; nullopt if it
  /// lacks the `.grwb` magic, else the validated source.
  static std::optional<GraphSource> OpenGraphBinary(const std::string& path,
                                                    bool verify);

  GraphSourceKind kind_ = GraphSourceKind::kText;
  std::string path_;
  uint64_t checksum_ = 0;
  bool relabeled_ = false;
  uint32_t num_shards_ = 0;            // sharded kind
  Graph graph_;                        // all but sharded() sources
  std::shared_ptr<ShardStore> store_;  // sharded() only
};

}  // namespace grw
