#include "walk/subgraph_walk.h"

#include <bit>
#include <cassert>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "graph/access.h"

namespace grw {

namespace {

// Connectivity over an n-node (n <= 32) adjacency given as per-node
// neighbor bitmasks: bitset BFS from node 0, no edge queries.
bool MaskRowsConnected(const uint32_t* rows, int n) {
  const uint32_t all = n >= 32 ? ~0u : (1u << n) - 1u;
  uint32_t visited = 1u;
  uint32_t frontier = 1u;
  while (frontier != 0 && visited != all) {
    uint32_t reach = 0;
    while (frontier != 0) {
      reach |= rows[std::countr_zero(frontier)];
      frontier &= frontier - 1;
    }
    frontier = reach & ~visited;
    visited |= frontier;
  }
  return visited == all;
}

// A pair whose longer list holds more than this many times the shorter
// one's ids is counted by skipping through the longer list.
constexpr size_t kSkewRatio = 8;

// |[pa, ea) ∩ [pb, eb)| by a branching merge.
uint64_t MergeIntersectionSize(const VertexId* pa, const VertexId* ea,
                               const VertexId* pb, const VertexId* eb) {
  uint64_t common = 0;
  while (pa != ea && pb != eb) {
    if (*pa < *pb) {
      ++pa;
    } else if (*pb < *pa) {
      ++pb;
    } else {
      ++common;
      ++pa;
      ++pb;
    }
  }
  return common;
}

// Fills rows[0..n) with the adjacency induced by `nodes` (n <= 32 of
// them): C(n, 2) edge queries.
template <class G>
void InducedRows(const G& g, std::span<const VertexId> nodes,
                 uint32_t* rows) {
  const int n = static_cast<int>(nodes.size());
  assert(n <= 32);
  for (int i = 0; i < n; ++i) rows[i] = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (g.HasEdge(nodes[i], nodes[j])) {
        rows[i] |= 1u << j;
        rows[j] |= 1u << i;
      }
    }
  }
}

// Positions (x, y) of a 3-vertex state that stay when position z drops.
constexpr int kKept[3][2] = {{1, 2}, {0, 2}, {0, 1}};

// The closed-form G(3) degree of a 3-vertex state (distinct vertices),
// summed over the dropped vertex z, with kept pair x, y:
// - x ~ y: w is any vertex of N(x) ∪ N(y) outside the state. The union
//   holds x and y, and z iff z is adjacent to one of them.
// - x !~ y: w must join them, so it is a common neighbor outside the
//   state. The intersection holds z iff z is adjacent to both.
// Reads each state vertex's list once, in state order, and takes the
// adjacencies from those lists. Agrees with EnumerateGdNeighbors' count
// for every state, and for a connected one reduces to
// d_x + d_y - |N(x) ∩ N(y)| - 3 and |N(x) ∩ N(y)| - 1 per z.
template <class G>
uint64_t CountG3Neighbors(const G& g, std::span<const VertexId> state) {
  assert(state.size() == 3);
  const std::span<const VertexId> lists[3] = {
      g.Neighbors(state[0]), g.Neighbors(state[1]), g.Neighbors(state[2])};
  // edge[z]: the pair kept when z drops is adjacent; searches the shorter
  // of the two lists.
  bool edge[3];
  for (int z = 0; z < 3; ++z) {
    int x = kKept[z][0];
    int y = kKept[z][1];
    if (lists[x].size() > lists[y].size()) std::swap(x, y);
    edge[z] = SortedContains(lists[x], state[y]);
  }
  uint64_t count = 0;
  for (int z = 0; z < 3; ++z) {
    const int x = kKept[z][0];
    const int y = kKept[z][1];
    const uint64_t common = SortedIntersectionSize(lists[x], lists[y]);
    const bool z_to_x = edge[y];  // dropping y keeps the pair {x, z}
    const bool z_to_y = edge[x];
    count += edge[z] ? lists[x].size() + lists[y].size() - common - 2 -
                           (z_to_x || z_to_y)
                     : common - (z_to_x && z_to_y);
  }
  return count;
}

}  // namespace

// Replaying the pairs of a 320k-step PSRW trajectory on the e2e Holme-Kim
// graph (n = 250k, degree cap 500; a 4-core Xeon VM with AVX2), the
// merge alone took 600-780 ns a pair, skip-scan plus merge 430-510, and
// skip-scan plus the SSE2 block compare 250-340. An AVX2 8x8 block
// compare timed the same as SSE2 (235-330 ns), so there is none. Skew
// ratios of 8 and 16 tied on walk.degree_ns; 32 was 16% slower.
uint64_t SortedIntersectionSize(std::span<const VertexId> a,
                                std::span<const VertexId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  const VertexId* pa = a.data();
  const VertexId* const ea = pa + a.size();
  const VertexId* pb = b.data();
  const VertexId* const eb = pb + b.size();
  uint64_t common = 0;
  if (b.size() > kSkewRatio * a.size()) {
    // Skewed: each short-list id skips the long list 8 ids at a time,
    // then steps to its place.
    for (; pa != ea; ++pa) {
      const VertexId v = *pa;
      while (eb - pb >= 8 && pb[7] < v) pb += 8;
      while (pb != eb && *pb < v) ++pb;
      if (pb == eb) break;
      common += *pb == v;
    }
    return common;
  }
#if defined(__SSE2__)
  // Balanced: compare 4 ids of each list all-against-all (the b block
  // under its 4 rotations), then advance the block(s) whose last id is
  // smaller. Ids are distinct within a list, so each a lane matches at
  // most one b lane and the 4-bit mask's popcount is the block's match
  // count. It is read from a nibble table packed in one constant:
  // without -mpopcnt, std::popcount is a libgcc call per block.
  while (ea - pa >= 4 && eb - pb >= 4) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb));
    const __m128i vb1 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
    const __m128i vb2 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
    const __m128i vb3 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3));
    const __m128i eq = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi32(va, vb), _mm_cmpeq_epi32(va, vb1)),
        _mm_or_si128(_mm_cmpeq_epi32(va, vb2), _mm_cmpeq_epi32(va, vb3)));
    const unsigned mask =
        static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(eq)));
    common += (0x4332322132212110ull >> (4 * mask)) & 0xF;
    const VertexId a_last = pa[3];
    const VertexId b_last = pb[3];
    if (a_last <= b_last) pa += 4;
    if (b_last <= a_last) pb += 4;
  }
#endif
  return common + MergeIntersectionSize(pa, ea, pb, eb);
}

template <class G>
bool InducedSubgraphConnected(const G& g, std::span<const VertexId> nodes) {
  if (nodes.size() <= 1) return true;
  uint32_t rows[32] = {};
  InducedRows(g, nodes, rows);
  return MaskRowsConnected(rows, static_cast<int>(nodes.size()));
}

template <class G>
uint64_t EnumerateGdNeighbors(const G& g, std::span<const VertexId> state,
                              std::vector<VertexId>* out_neighbors,
                              GdScratch& scratch) {
  const int d = static_cast<int>(state.size());
  assert(d >= 1 && d <= 32);

  // Internal adjacency of the current state, once per call: C(d,2) edge
  // queries that every evicted-vertex iteration below reuses.
  const uint32_t* srows = scratch.state_rows.data();
  InducedRows(g, state, scratch.state_rows.data());

  std::vector<VertexId>& base = scratch.base;
  std::vector<VertexId>& candidate = scratch.candidate;
  base.resize(d > 0 ? d - 1 : 0);
  candidate.resize(d);
  uint64_t count = 0;

  for (int out_idx = 0; out_idx < d; ++out_idx) {
    // base = state minus the out_idx-th node, kept sorted; its internal
    // adjacency is the state's with row/column out_idx spliced out.
    uint32_t* brows = scratch.base_rows.data();
    const uint32_t low_mask = (1u << out_idx) - 1u;
    for (int i = 0, j = 0; i < d; ++i) {
      if (i == out_idx) continue;
      base[j] = state[i];
      const uint64_t row = srows[i];  // 64-bit so >> (out_idx + 1) is
                                      // defined even when out_idx == 31
      brows[j] = static_cast<uint32_t>((row & low_mask) |
                                       ((row >> (out_idx + 1)) << out_idx));
      ++j;
    }

    // Candidate incoming nodes are exactly the neighbors of the base
    // outside the state (a node with no edge to the base can never yield
    // a connected candidate, since all its candidate edges go to the
    // base). A (d-1)-way sorted merge of the base neighbor lists yields
    // each distinct candidate w in ascending order together with its
    // base-adjacency mask for free: w is adjacent to base[i] iff it
    // surfaced from list i. No edge queries, no sort, no dedup pass.
    const VertexId** heads = scratch.heads.data();
    const VertexId** ends = scratch.ends.data();
    for (int i = 0; i + 1 < d; ++i) {
      const auto list = g.Neighbors(base[i]);
      heads[i] = list.data();
      ends[i] = list.data() + list.size();
    }
    size_t state_pos = 0;  // cursor into the (sorted) state for skipping
    while (true) {
      // Find the smallest head across the lists and collect which lists
      // carry it (that set IS the candidate's base-adjacency mask).
      VertexId w = ~static_cast<VertexId>(0);
      uint32_t wmask = 0;
      for (int i = 0; i + 1 < d; ++i) {
        if (heads[i] == ends[i]) continue;
        const VertexId head = *heads[i];
        if (head < w) {
          w = head;
          wmask = 1u << i;
        } else if (head == w) {
          wmask |= 1u << i;
        }
      }
      if (wmask == 0) break;  // all lists exhausted
      for (int i = 0; i + 1 < d; ++i) heads[i] += (wmask >> i) & 1u;
      while (state_pos < state.size() && state[state_pos] < w) ++state_pos;
      if (state_pos < state.size() && state[state_pos] == w) continue;

      uint32_t rows[32];
      for (int i = 0; i + 1 < d; ++i) {
        rows[i] = brows[i] | (((wmask >> i) & 1u) << (d - 1));
      }
      rows[d - 1] = wmask;
      if (!MaskRowsConnected(rows, d)) continue;
      ++count;
      if (out_neighbors != nullptr) {
        // candidate = sorted(base + {w}). Distinct (out_idx, w) pairs
        // always produce distinct candidates, so no cross-out_idx dedup
        // is needed.
        std::merge(base.begin(), base.end(), &w, &w + 1, candidate.begin());
        out_neighbors->insert(out_neighbors->end(), candidate.begin(),
                              candidate.end());
      }
    }
  }
  return count;
}

void EnumerateGdNeighborsReference(const Graph& g,
                                   std::span<const VertexId> state,
                                   std::vector<VertexId>* out_neighbors) {
  // The PR 3 implementation, verbatim: three scratch vectors allocated per
  // call, full adjacency-probing connectivity BFS per candidate.
  const auto connected = [&g](std::span<const VertexId> nodes) {
    const int n = static_cast<int>(nodes.size());
    if (n <= 1) return true;
    uint32_t visited = 1u;
    uint32_t frontier = 1u;
    while (frontier != 0) {
      uint32_t next = 0;
      for (int i = 0; i < n; ++i) {
        if (!((frontier >> i) & 1u)) continue;
        for (int j = 0; j < n; ++j) {
          if (!((visited >> j) & 1u) && g.HasEdge(nodes[i], nodes[j])) {
            next |= 1u << j;
          }
        }
      }
      visited |= next;
      frontier = next;
    }
    return visited == (1u << n) - 1u;
  };

  const int d = static_cast<int>(state.size());
  std::vector<VertexId> base(d - 1);
  std::vector<VertexId> candidate(d);
  std::vector<VertexId> additions;  // distinct v_in candidates per v_out

  for (int out_idx = 0; out_idx < d; ++out_idx) {
    for (int i = 0, j = 0; i < d; ++i) {
      if (i != out_idx) base[j++] = state[i];
    }
    additions.clear();
    for (VertexId v : base) {
      for (VertexId w : g.Neighbors(v)) {
        if (std::find(state.begin(), state.end(), w) == state.end()) {
          additions.push_back(w);
        }
      }
    }
    std::sort(additions.begin(), additions.end());
    additions.erase(std::unique(additions.begin(), additions.end()),
                    additions.end());

    for (VertexId w : additions) {
      std::merge(base.begin(), base.end(), &w, &w + 1, candidate.begin());
      if (connected(candidate)) {
        out_neighbors->insert(out_neighbors->end(), candidate.begin(),
                              candidate.end());
      }
    }
  }
}

template <class G>
uint64_t SubgraphStateDegree(const G& g, std::span<const VertexId> state,
                             GdScratch& scratch) {
  if (state.size() == 3) return CountG3Neighbors(g, state);
  return EnumerateGdNeighbors(g, state, nullptr, scratch);
}

template <class G>
void SubgraphWalkT<G>::Reset(Rng& rng) {
  // Grow a connected d-set from a random start node by repeatedly adding
  // a random neighbor of a random member. Retry from scratch if the
  // region around the start is too small (cannot happen in a connected
  // graph with n > d, but the loop also guards against pathological RNG
  // luck).
  while (true) {
    nodes_.clear();
    nodes_.push_back(static_cast<VertexId>(rng.UniformInt(g_->NumNodes())));
    int guard = 0;
    while (static_cast<int>(nodes_.size()) < d_ && guard++ < 16 * d_) {
      const VertexId anchor = nodes_[rng.UniformInt(nodes_.size())];
      const uint32_t deg = g_->Degree(anchor);
      if (deg == 0) break;
      const VertexId w =
          g_->Neighbor(anchor, static_cast<uint32_t>(rng.UniformInt(deg)));
      if (std::find(nodes_.begin(), nodes_.end(), w) == nodes_.end()) {
        nodes_.push_back(w);
      }
    }
    if (static_cast<int>(nodes_.size()) == d_) break;
  }
  std::sort(nodes_.begin(), nodes_.end());
  InducedRows(*g_, Nodes(), rows_.data());
  degrees_.fill(0);
  left_ = kNone;
  entered_ = kNone;
  degree_ = 0;
}

template <class G>
KnownAdjacency SubgraphWalkT<G>::Known() const {
  if (d_ != 3) return {};
  return {{nodes_[0], nodes_[1], nodes_[2]},
          {static_cast<uint8_t>(rows_[0]), static_cast<uint8_t>(rows_[1]),
           static_cast<uint8_t>(rows_[2])},
          3};
}

template <class G>
void SubgraphWalkT<G>::Step(Rng& rng) {
  const int d = d_;
  // Only the vertex the last move added has no degree yet (every vertex
  // after Reset); a state vertex has at least one neighbor, so 0 is unset.
  uint64_t total = 0;
  for (int i = 0; i < d; ++i) {
    if (degrees_[i] == 0) degrees_[i] = g_->Degree(nodes_[i]);
    total += degrees_[i];
  }
  uint32_t rows[32] = {};
  int z = 0;
  VertexId w = kNone;
  while (true) {
    // One try: the slot names u and its neighbor w, then z != u drops.
    uint64_t slot = rng.UniformInt(total);
    int u = 0;
    while (slot >= degrees_[u]) slot -= degrees_[u++];
    w = g_->Neighbor(nodes_[u], static_cast<uint32_t>(slot));
    z = static_cast<int>(rng.UniformInt(d - 1));
    z += z >= u;
    if (std::find(nodes_.begin(), nodes_.end(), w) != nodes_.end()) continue;
    // w's row among the kept vertices; u must be its first kept neighbor.
    uint32_t w_row = 1u << u;
    bool first = true;
    for (int j = 0; j < d && first; ++j) {
      if (j == u || j == z || !g_->HasEdge(nodes_[j], w)) continue;
      first = j > u;
      w_row |= 1u << j;
    }
    if (!first) continue;
    // S - z + w with w in z's position.
    for (int j = 0; j < d; ++j) {
      rows[j] = (rows_[j] & ~(1u << z)) | ((w_row >> j) & 1u) << z;
    }
    rows[z] = w_row;
    if (!MaskRowsConnected(rows, d)) continue;
    // NB: not back to the previous state unless it is the only neighbor.
    if (nb_ && w == left_ && nodes_[z] == entered_ && StateDegree() > 1) {
      continue;
    }
    break;
  }
  left_ = nodes_[z];
  entered_ = w;
  nodes_[z] = w;
  degrees_[z] = 0;
  // Restore the sorted order: move w to its place one swap at a time,
  // swapping the two positions' rows, degrees and bits in every row.
  const auto swap_with_next = [&](int i) {
    std::swap(nodes_[i], nodes_[i + 1]);
    std::swap(degrees_[i], degrees_[i + 1]);
    std::swap(rows[i], rows[i + 1]);
    for (int j = 0; j < d; ++j) {
      const uint32_t pair = rows[j] >> i & 3u;
      rows[j] = (rows[j] & ~(3u << i)) | ((pair >> 1 | pair << 1) & 3u) << i;
    }
  };
  for (; z > 0 && nodes_[z - 1] > w; --z) swap_with_next(z - 1);
  for (; z + 1 < d && nodes_[z + 1] < w; ++z) swap_with_next(z);
  std::copy(rows, rows + d, rows_.begin());
  degree_ = 0;
}

// Instantiating here keeps the hot path out of every includer while still
// compiling each access policy with full optimization context.
#define GRW_INSTANTIATE(G)                                                 \
  template bool InducedSubgraphConnected<G>(const G&,                      \
                                            std::span<const VertexId>);    \
  template uint64_t EnumerateGdNeighbors<G>(                               \
      const G&, std::span<const VertexId>, std::vector<VertexId>*,         \
      GdScratch&);                                                         \
  template uint64_t SubgraphStateDegree<G>(                                \
      const G&, std::span<const VertexId>, GdScratch&);                    \
  template class SubgraphWalkT<G>;
GRW_ACCESS_FAMILY(GRW_INSTANTIATE)
#undef GRW_INSTANTIATE

}  // namespace grw
