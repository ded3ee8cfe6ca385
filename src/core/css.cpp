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

namespace grw {

namespace {

// Degree in G(d) of the state given by canonical-label bitmask `state`,
// mapped onto the sample's real vertices. Only d <= 2 (closed forms).
// Degree reads go through the access policy G.
template <class G>
uint64_t MappedStateDegree(uint16_t state, int d, const MaskInfo& info,
                           std::span<const VertexId> nodes, const G& g) {
  if (d == 1) {
    const int c = std::countr_zero(state);
    return g.Degree(nodes[info.position_of[c]]);
  }
  assert(d == 2);
  const int c1 = std::countr_zero(state);
  const int c2 = std::countr_zero(static_cast<uint16_t>(state & (state - 1)));
  const uint64_t du = g.Degree(nodes[info.position_of[c1]]);
  const uint64_t dv = g.Degree(nodes[info.position_of[c2]]);
  return du + dv - 2;
}

uint64_t NominalDegree(uint64_t deg, bool nb) {
  if (!nb) return deg;
  return deg > 1 ? deg - 1 : 1;
}

}  // namespace

CssTable::CssTable(int k, int d) : k_(k), d_(d) {
  assert(d >= 1 && d <= 2 && d < k);
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
  const int l = k - d + 1;
  entries_.resize(catalog.NumTypes());
  for (int id = 0; id < catalog.NumTypes(); ++id) {
    const auto sequences = CorrespondingSequences(catalog.Get(id), d);
    // Group sequences by sorted interior-state tuple; the expanded-chain
    // weight is a product, so order within the interior is irrelevant.
    std::map<std::array<uint16_t, 4>, uint32_t> groups;
    for (const StateSequence& seq : sequences) {
      std::array<uint16_t, 4> key = {};
      for (int t = 1; t + 1 < l; ++t) key[t - 1] = seq[t];
      // Insertion sort over the <= 4 interior entries. (std::sort on the
      // dynamic prefix trips GCC's -O3 value-range analysis into
      // -Warray-bounds false positives; this is just as clear.)
      const int interior = std::max(0, l - 2);
      for (int i = 1; i < interior; ++i) {
        const uint16_t x = key[i];
        int j = i;
        while (j > 0 && key[j - 1] > x) {
          key[j] = key[j - 1];
          --j;
        }
        key[j] = x;
      }
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
                      const G& g, bool nb) const {
  assert(info.type >= 0);
  double total = 0.0;
  for (const CssEntry& entry : entries_[info.type]) {
    double denom = 1.0;
    for (int t = 0; t < entry.num_interior; ++t) {
      denom *= static_cast<double>(NominalDegree(
          MappedStateDegree(entry.interior[t], d_, info, nodes, g), nb));
    }
    total += static_cast<double>(entry.count) / denom;
  }
  return total;
}

#define GRW_INSTANTIATE(G)                                        \
  template double CssTable::Eval<G>(                              \
      const MaskInfo&, std::span<const VertexId>, const G&, bool) const;
GRW_ACCESS_FAMILY(GRW_INSTANTIATE)
#undef GRW_INSTANTIATE

const CssTable& CssTable::For(int k, int d) {
  // k in [3, kMaxGraphletSize], d in {1, 2}.
  if (k < 3 || k > kMaxGraphletSize || (d != 1 && d != 2)) {
    throw std::invalid_argument("CssTable::For: bad (k, d)");
  }
  static std::once_flag flags[kMaxGraphletSize + 1][3];
  static std::unique_ptr<CssTable> tables[kMaxGraphletSize + 1][3];
  std::call_once(flags[k][d], [k, d] {
    tables[k][d] = std::unique_ptr<CssTable>(new CssTable(k, d));
  });
  return *tables[k][d];
}

double CssWeightDirect(
    int k, int d, const MaskInfo& info, std::span<const VertexId> nodes,
    const std::function<uint64_t(std::span<const VertexId>)>& state_degree,
    bool nb) {
  assert(info.type >= 0 && d >= 1 && d < k);
  const Graphlet& g = GraphletCatalog::ForSize(k).Get(info.type);
  const auto sequences = CorrespondingSequences(g, d);
  const int l = k - d + 1;
  double total = 0.0;
  std::vector<VertexId> state_nodes;
  for (const StateSequence& seq : sequences) {
    double denom = 1.0;
    for (int t = 1; t + 1 < l; ++t) {
      state_nodes.clear();
      for (int c = 0; c < k; ++c) {
        if ((seq[t] >> c) & 1u) {
          state_nodes.push_back(nodes[info.position_of[c]]);
        }
      }
      std::sort(state_nodes.begin(), state_nodes.end());
      uint64_t deg = state_degree(state_nodes);
      if (nb && deg > 1) deg -= 1;
      if (deg == 0) deg = 1;
      denom *= static_cast<double>(deg);
    }
    total += 1.0 / denom;
  }
  return total;
}

}  // namespace grw
