#include "core/css.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <stdexcept>
#include <memory>
#include <mutex>

#include "core/alpha.h"
#include "graph/access.h"
#include "graphlet/catalog.h"
#include "walk/subgraph_walk.h"

namespace grw {

namespace {

// Sorts the first n entries of `a` in place. (std::sort on a dynamic
// prefix of a fixed array trips GCC's -O3 value-range analysis into
// -Warray-bounds false positives; an insertion sort over <= 6 entries is
// just as clear.)
template <class T, size_t N>
void SortPrefix(std::array<T, N>& a, int n) {
  for (int i = 1; i < n; ++i) {
    const T x = a[i];
    int j = i;
    while (j > 0 && a[j - 1] > x) {
      a[j] = a[j - 1];
      --j;
    }
    a[j] = x;
  }
}

// Degree in G(d) of the state given by canonical-label bitmask `state`,
// mapped onto the sample's real vertices: closed forms at d <= 2, counted
// by SubgraphStateDegree (with `scratch`) at d >= 3. Degree reads go
// through the access policy G.
template <class G>
uint64_t MappedStateDegree(uint16_t state, int d, const MaskInfo& info,
                           std::span<const VertexId> nodes, const G& g,
                           GdScratch& scratch) {
  if (d == 1) {
    const int c = std::countr_zero(state);
    return g.Degree(nodes[info.position_of[c]]);
  }
  if (d == 2) {
    const int c1 = std::countr_zero(state);
    const int c2 =
        std::countr_zero(static_cast<uint16_t>(state & (state - 1)));
    const uint64_t du = g.Degree(nodes[info.position_of[c1]]);
    const uint64_t dv = g.Degree(nodes[info.position_of[c2]]);
    return du + dv - 2;
  }
  std::array<VertexId, kMaxGraphletSize> members;
  int n = 0;
  for (uint32_t rest = state; rest != 0; rest &= rest - 1) {
    members[n++] = nodes[info.position_of[std::countr_zero(rest)]];
  }
  SortPrefix(members, n);
  return SubgraphStateDegree(g, std::span<const VertexId>(members.data(), n),
                             scratch);
}

uint64_t NominalDegree(uint64_t deg, bool nb) {
  if (!nb) return deg;
  return deg > 1 ? deg - 1 : 1;
}

}  // namespace

CssTable::CssTable(int k, int d) : k_(k), d_(d) {
  assert(d >= 1 && d < k);
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
  const int l = k - d + 1;
  entries_.resize(catalog.NumTypes());
  alpha_.resize(catalog.NumTypes());
  for (int id = 0; id < catalog.NumTypes(); ++id) {
    const auto sequences = CorrespondingSequences(catalog.Get(id), d);
    alpha_[id] = static_cast<int64_t>(sequences.size());
    // Group sequences by sorted interior-state tuple; the expanded-chain
    // weight is a product, so order within the interior is irrelevant.
    std::map<std::array<uint16_t, 4>, uint32_t> groups;
    for (const StateSequence& seq : sequences) {
      std::array<uint16_t, 4> key = {};
      for (int t = 1; t + 1 < l; ++t) key[t - 1] = seq[t];
      SortPrefix(key, std::max(0, l - 2));
      groups[key]++;
    }
    for (const auto& [key, count] : groups) {
      CssEntry entry;
      entry.interior = key;
      entry.num_interior = static_cast<uint8_t>(std::max(0, l - 2));
      entry.count = count;
      entries_[id].push_back(entry);
    }
  }
}

template <class G>
double CssTable::Eval(const MaskInfo& info, std::span<const VertexId> nodes,
                      const G& g, bool nb, GdScratch& scratch) const {
  assert(info.type >= 0);
  double total = 0.0;
  for (const CssEntry& entry : entries_[info.type]) {
    double denom = 1.0;
    for (int t = 0; t < entry.num_interior; ++t) {
      denom *= static_cast<double>(NominalDegree(
          MappedStateDegree(entry.interior[t], d_, info, nodes, g, scratch),
          nb));
    }
    total += static_cast<double>(entry.count) / denom;
  }
  return total;
}

#define GRW_INSTANTIATE(G)                                         \
  template double CssTable::Eval<G>(const MaskInfo&,               \
                                    std::span<const VertexId>,     \
                                    const G&, bool, GdScratch&) const;
GRW_ACCESS_FAMILY(GRW_INSTANTIATE)
#undef GRW_INSTANTIATE

const CssTable& CssTable::For(int k, int d) {
  if (k < 3 || k > kMaxGraphletSize || d < 1 || d >= k) {
    throw std::invalid_argument("CssTable::For: bad (k, d)");
  }
  static std::once_flag flags[kMaxGraphletSize + 1][kMaxGraphletSize];
  static std::unique_ptr<CssTable> tables[kMaxGraphletSize + 1]
                                         [kMaxGraphletSize];
  std::call_once(flags[k][d], [k, d] {
    tables[k][d] = std::unique_ptr<CssTable>(new CssTable(k, d));
  });
  return *tables[k][d];
}

}  // namespace grw
