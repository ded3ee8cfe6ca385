#include "graph/source.h"

#include <filesystem>
#include <stdexcept>

#include "graph/io.h"

namespace grw {

GraphSource GraphSource::Open(const std::string& path,
                              const OpenOptions& options) {
  // A directory is only ever a sharded graph; without a manifest,
  // LoadShardManifest says so.
  std::error_code ec;
  if (IsShardManifestPath(path) || std::filesystem::is_directory(path, ec)) {
    GraphSource source;
    source.path_ = path;
    source.kind_ = GraphSourceKind::kSharded;
    ShardManifest manifest = LoadShardManifest(path, options.verify);
    source.checksum_ = ShardContentChecksum(manifest);
    source.relabeled_ = manifest.DegreeRelabeled();
    source.num_shards_ = manifest.NumShards();
    if (options.resident_budget_bytes == 0) {
      source.graph_ = CopyShardsToGraph(manifest);
    } else {
      source.store_ = std::make_shared<ShardStore>(
          std::move(manifest),
          ShardStore::Options{options.resident_budget_bytes});
    }
    return source;
  }

  std::optional<GraphSource> source = OpenGraphBinary(path, options.verify);
  if (!source.has_value()) {
    source.emplace();
    source->kind_ = GraphSourceKind::kText;
    source->graph_ = LoadEdgeList(path, options.largest_cc);
  }
  source->path_ = path;
  if (options.build_index) source->graph_.BuildAdjacencyIndex();
  return *std::move(source);
}

GraphSource GraphSource::FromGraph(Graph g, const std::string& label) {
  GraphSource source;
  source.kind_ = GraphSourceKind::kText;
  source.path_ = label;
  source.graph_ = std::move(g);
  return source;
}

const Graph& GraphSource::graph() const {
  if (sharded()) {
    throw std::logic_error(
        "GraphSource::graph(): '" + path_ +
        "' is a sharded out-of-core graph; read it through shards() / "
        "ShardedAccess (or open it with no resident budget)");
  }
  return graph_;
}

const ShardStore& GraphSource::shards() const {
  if (!sharded()) {
    throw std::logic_error("GraphSource::shards(): '" + path_ +
                           "' is not read through a shard store");
  }
  return *store_;
}

VertexId GraphSource::NumNodes() const {
  return sharded() ? store_->NumNodes() : graph_.NumNodes();
}

uint64_t GraphSource::NumEdges() const {
  return sharded() ? store_->NumEdges() : graph_.NumEdges();
}

std::string GraphSource::Summary() const {
  std::string out = "n=" + std::to_string(NumNodes()) +
                    " m=" + std::to_string(NumEdges());
  switch (kind_) {
    case GraphSourceKind::kText:
      out += " kind=text";
      break;
    case GraphSourceKind::kBinary:
      out += " kind=grwb";
      break;
    case GraphSourceKind::kSharded:
      out += " kind=sharded shards=" + std::to_string(num_shards_);
      break;
  }
  return out;
}

}  // namespace grw
