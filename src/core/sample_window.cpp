#include "core/sample_window.h"

#include "graph/access.h"

namespace grw {

template <class G>
void SampleWindowT<G>::Push(std::span<const VertexId> nodes,
                            uint64_t state_degree,
                            const KnownAdjacency& known) {
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
    AddVertex(nodes[i], known);
  }
  ++size_;
}

template <class G>
void SampleWindowT<G>::AddVertex(VertexId v, const KnownAdjacency& known) {
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
  // adjacency is new, and only the pairs the walker did not reveal cost
  // an edge query.
  const int kv = known.Find(v);
  uint32_t row = 0;
  for (int i = 0; i < idx; ++i) {
    const VertexId u = registry_nodes_[i];
    const int ku = kv < 0 ? -1 : known.Find(u);
    const uint32_t has = ku >= 0 ? (known.rows[kv] >> ku) & 1u
                                 : static_cast<uint32_t>(g_->HasEdge(u, v));
    row |= has << i;
    registry_rows_[i] |= has << idx;
  }
  registry_rows_[idx] = row;
}

template <class G>
void SampleWindowT<G>::ReleaseVertex(VertexId v) {
  for (int i = 0; i < registry_size_; ++i) {
    if (registry_nodes_[i] != v) continue;
    if (--registry_refs_[i] > 0) return;
    // Remove vertex i, preserving first-appearance order of the rest: its
    // row goes with it, and every other row drops bit i by shifting the
    // bits above it down one.
    for (int r = i; r + 1 < registry_size_; ++r) {
      registry_nodes_[r] = registry_nodes_[r + 1];
      registry_refs_[r] = registry_refs_[r + 1];
      registry_rows_[r] = registry_rows_[r + 1];
    }
    --registry_size_;
    const uint32_t low = (1u << i) - 1u;
    for (int r = 0; r < registry_size_; ++r) {
      const uint32_t row = registry_rows_[r];
      registry_rows_[r] = (row & low) | ((row >> 1) & ~low);
    }
    return;
  }
  assert(false && "releasing vertex not in registry");
}

template <class G>
uint32_t SampleWindowT<G>::Mask() const {
  assert(Valid());
  // The packed layout lists row i's pairs (i, j > i) contiguously from
  // PairIndex(k, i, i + 1), so each row's upper part lands in one shift.
  uint32_t mask = 0;
  for (int i = 0; i + 1 < k_; ++i) {
    mask |= (registry_rows_[i] >> (i + 1)) << PairIndex(k_, i, i + 1);
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
