#include "serve/registry.h"

#include "graph/format.h"
#include "graph/sharding.h"

namespace grw::serve {

namespace {

// Content identity BEFORE the (possibly expensive) load: one header read
// for `.grwb`, one manifest read for sharded, empty for text (parsed
// content has no stored checksum and is never shared by key). A sharded
// key names the budget too: it decides what the open builds.
std::string ContentKey(const std::string& path,
                       uint64_t resident_budget_bytes) {
  if (IsShardManifestPath(path)) {
    const uint64_t checksum = ShardContentChecksum(LoadShardManifest(path));
    return path + '\0' + std::to_string(checksum) + '\0' +
           std::to_string(resident_budget_bytes);
  }
  if (IsGraphBinaryFile(path)) {
    const uint64_t checksum = InspectGraphBinary(path).data_checksum;
    return path + '\0' + std::to_string(checksum);
  }
  return {};
}

}  // namespace

const GraphSource* SnapshotRegistry::FindResidentLocked(
    const std::string& content_key) const {
  auto it = by_content_.find(content_key);
  return it != by_content_.end() ? &it->second : nullptr;
}

void SnapshotRegistry::Register(const std::string& id,
                                const std::string& path, bool verify,
                                uint64_t resident_budget_bytes) {
  const std::string content_key = ContentKey(path, resident_budget_bytes);

  {
    MutexLock lock(mu_);
    if (!content_key.empty()) {
      if (const GraphSource* resident = FindResidentLocked(content_key)) {
        entries_[id] = *resident;  // shares the mapping/store
        return;
      }
    }
  }

  // Load outside the lock: mmap is fast but text parsing and
  // verification are not, and a slow registration must not block
  // lookups. Two threads racing to register the same content both load;
  // the second insert below merely replaces an identical resident source
  // — wasted work, never a wrong answer. Payloads are verified here (see
  // header) so corruption surfaces as SnapshotCorruptError at
  // registration, not as garbage estimates at query time.
  OpenOptions options;
  options.verify = verify;
  options.resident_budget_bytes = resident_budget_bytes;
  GraphSource source = GraphSource::Open(path, options);

  MutexLock lock(mu_);
  if (!content_key.empty()) by_content_[content_key] = source;
  entries_[id] = std::move(source);
}

void SnapshotRegistry::RegisterGraph(const std::string& id, Graph graph,
                                     const std::string& label) {
  GraphSource source = GraphSource::FromGraph(std::move(graph), label);
  MutexLock lock(mu_);
  entries_[id] = std::move(source);
}

std::optional<GraphSource> SnapshotRegistry::FindSource(
    const std::string& id) const {
  MutexLock lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::vector<GraphListEntry> SnapshotRegistry::List() const {
  MutexLock lock(mu_);
  std::vector<GraphListEntry> out;
  out.reserve(entries_.size());
  for (const auto& [id, source] : entries_) {
    GraphListEntry e;
    e.id = id;
    e.path = source.path();
    e.nodes = source.NumNodes();
    e.edges = source.NumEdges();
    e.checksum = source.content_checksum();
    out.push_back(std::move(e));
  }
  return out;
}

size_t SnapshotRegistry::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace grw::serve
