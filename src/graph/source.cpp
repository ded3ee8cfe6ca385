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
    ShardStore::Options store_options;
    store_options.resident_budget_bytes = options.resident_budget_bytes;
    source.store_ =
        std::make_shared<ShardStore>(std::move(manifest), store_options);
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
  if (kind_ == GraphSourceKind::kSharded) {
    throw std::logic_error(
        "GraphSource::graph(): '" + path_ +
        "' is a sharded out-of-core graph; read it through shards() / "
        "ShardedAccess (or re-materialize it with `grw convert`)");
  }
  return graph_;
}

const ShardStore& GraphSource::shards() const {
  if (kind_ != GraphSourceKind::kSharded) {
    throw std::logic_error("GraphSource::shards(): '" + path_ +
                           "' is not a sharded graph");
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
      out += " kind=sharded shards=" + std::to_string(store_->NumShards());
      break;
  }
  return out;
}

}  // namespace grw
