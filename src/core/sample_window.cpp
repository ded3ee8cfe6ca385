#include "core/sample_window.h"

#include <algorithm>

#include "graph/access.h"

namespace grw {

template <class G>
void SampleWindowT<G>::Push(std::span<const VertexId> nodes,
                            uint64_t state_degree) {
  // Evict first so the registry never exceeds k vertices (any l-1
  // consecutive states cover at most d + l - 2 = k - 1 vertices).
  if (size_ == l_) {
    const WindowState& oldest = StateAt(0);
    for (int i = 0; i < oldest.num_nodes; ++i) {
      ReleaseVertex(oldest.nodes[i]);
    }
    head_ = (head_ + 1) % l_;
    --size_;
  }
  WindowState& slot = StateAt(size_);
  slot.num_nodes = static_cast<uint8_t>(nodes.size());
  slot.degree = state_degree;
  for (size_t i = 0; i < nodes.size(); ++i) {
    slot.nodes[i] = nodes[i];
    AddVertex(nodes[i]);
  }
  ++size_;
}

template <class G>
void SampleWindowT<G>::AddVertex(VertexId v) {
  for (int i = 0; i < registry_size_; ++i) {
    if (registry_nodes_[i] == v) {
      ++registry_refs_[i];
      return;
    }
  }
  assert(registry_size_ < k_);
  const int idx = registry_size_++;
  registry_nodes_[idx] = v;
  registry_refs_[idx] = 1;
  // The incremental step of paper Section 5: only the entering vertex's
  // adjacency needs fresh queries (<= k-1 binary searches).
  for (int i = 0; i < idx; ++i) {
    const bool has = g_->HasEdge(registry_nodes_[i], v);
    adj_[i][idx] = has;
    adj_[idx][i] = has;
  }
  adj_[idx][idx] = false;
}

template <class G>
void SampleWindowT<G>::ReleaseVertex(VertexId v) {
  for (int i = 0; i < registry_size_; ++i) {
    if (registry_nodes_[i] != v) continue;
    if (--registry_refs_[i] > 0) return;
    // Remove row/column i, preserving first-appearance order of the rest.
    for (int r = i; r + 1 < registry_size_; ++r) {
      registry_nodes_[r] = registry_nodes_[r + 1];
      registry_refs_[r] = registry_refs_[r + 1];
    }
    for (int r = 0; r < registry_size_; ++r) {
      for (int c = i; c + 1 < registry_size_; ++c) {
        adj_[r][c] = adj_[r][c + 1];
      }
    }
    for (int r = i; r + 1 < registry_size_; ++r) {
      for (int c = 0; c < registry_size_; ++c) {
        adj_[r][c] = adj_[r + 1][c];
      }
    }
    --registry_size_;
    return;
  }
  assert(false && "releasing vertex not in registry");
}

template <class G>
uint32_t SampleWindowT<G>::Mask() const {
  assert(Valid());
  uint32_t mask = 0;
  for (int i = 0; i < k_; ++i) {
    for (int j = i + 1; j < k_; ++j) {
      if (adj_[i][j]) mask = MaskWithEdge(mask, k_, i, j);
    }
  }
  return mask;
}

template <class G>
uint32_t SampleWindowT<G>::MaskNaive() const {
  assert(Valid());
  uint32_t mask = 0;
  for (int i = 0; i < k_; ++i) {
    for (int j = i + 1; j < k_; ++j) {
      if (g_->HasEdge(registry_nodes_[i], registry_nodes_[j])) {
        mask = MaskWithEdge(mask, k_, i, j);
      }
    }
  }
  return mask;
}

#define GRW_INSTANTIATE(G) template class SampleWindowT<G>;
GRW_ACCESS_FAMILY(GRW_INSTANTIATE)
#undef GRW_INSTANTIATE

}  // namespace grw
