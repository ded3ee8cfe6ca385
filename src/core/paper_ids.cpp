#include "core/paper_ids.h"

#include <cassert>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "core/alpha.h"
#include "graphlet/catalog.h"

namespace grw {

namespace {

// Paper Table 2, alpha^k_i / 2. Column order g31, g32 and g41..g46.
const std::vector<std::vector<int64_t>> kPaperAlpha3 = {
    {1, 3},  // SRW1
    {1, 3},  // SRW2
};
const std::vector<std::vector<int64_t>> kPaperAlpha4 = {
    {1, 0, 4, 2, 6, 12},   // SRW1
    {1, 3, 4, 5, 12, 24},  // SRW2
    {1, 3, 6, 3, 6, 6},    // SRW3
};
// Paper Table 3, alpha^5_i / 2, columns = paper IDs 1..21.
const std::vector<std::vector<int64_t>> kPaperAlpha5 = {
    {1, 0, 0, 1, 2, 0, 5, 2, 2, 4, 4, 6, 7, 6, 6, 10, 14, 18, 24, 36, 60},
    {1, 2, 12, 5, 4, 16, 5, 6, 24, 24, 12, 18, 15, 54, 36, 42, 34, 82, 76,
     144, 240},
    {1, 5, 24, 8, 5, 24, 5, 16, 30, 24, 16, 63, 26, 63, 30, 43, 63, 63, 90,
     90, 90},
    {1, 3, 6, 3, 3, 6, 10, 12, 12, 12, 12, 10, 10, 10, 12, 10, 10, 10, 10,
     10, 10},
};

std::vector<int> BuildPaperOrder(int k) {
  const GraphletCatalog& catalog = GraphletCatalog::ForSize(k);
  if (k == 3) {
    return {catalog.IdByName("wedge"), catalog.IdByName("triangle")};
  }
  if (k == 4) {
    return {catalog.IdByName("4-path"),
            catalog.IdByName("3-star"),
            catalog.IdByName("4-cycle"),
            catalog.IdByName("tailed-triangle"),
            catalog.IdByName("chordal-cycle"),
            catalog.IdByName("4-clique")};
  }
  if (k == kMaxGraphletSize) {
    // The paper numbers no 6-node graphlets: catalog order.
    std::vector<int> order(static_cast<size_t>(catalog.NumTypes()));
    std::iota(order.begin(), order.end(), 0);
    return order;
  }
  assert(k == 5);
  // Match each catalog graphlet's (alpha_SRW1/2, alpha_SRW2/2) pair to the
  // unique Table 3 column carrying it.
  std::map<std::pair<int64_t, int64_t>, int> column_of;
  for (int pos = 0; pos < 21; ++pos) {
    const auto key =
        std::make_pair(kPaperAlpha5[0][pos], kPaperAlpha5[1][pos]);
    if (!column_of.emplace(key, pos).second) {
      throw std::logic_error("paper Table 3 columns not distinguishable");
    }
  }
  const std::vector<int64_t> alpha1 = AlphaTable(5, 1);
  const std::vector<int64_t> alpha2 = AlphaTable(5, 2);
  std::vector<int> order(21, -1);
  for (int id = 0; id < catalog.NumTypes(); ++id) {
    const auto key = std::make_pair(alpha1[id] / 2, alpha2[id] / 2);
    const auto it = column_of.find(key);
    if (it == column_of.end()) {
      throw std::logic_error(
          "computed alpha pair for a 5-node graphlet matches no paper "
          "column: " + catalog.Get(id).name);
    }
    if (order[it->second] != -1) {
      throw std::logic_error("two graphlets matched paper column " +
                             std::to_string(it->second + 1));
    }
    order[it->second] = id;
  }
  return order;
}

}  // namespace

const std::vector<int>& PaperOrder(int k) {
  assert(k >= 3 && k <= kMaxGraphletSize);
  static std::once_flag flags[kMaxGraphletSize + 1];
  static std::vector<int> orders[kMaxGraphletSize + 1];
  std::call_once(flags[k], [k] { orders[k] = BuildPaperOrder(k); });
  return orders[k];
}

std::string PaperLabel(int k, int paper_pos) {
  // k >= 5 positions run past 9, so an underscore separates them.
  std::string label = std::to_string(k);
  if (k >= 5) label += '_';
  return 'g' + label + std::to_string(paper_pos + 1);
}

const std::vector<std::vector<int64_t>>& PaperAlphaHalfTable(int k) {
  switch (k) {
    case 3:
      return kPaperAlpha3;
    case 4:
      return kPaperAlpha4;
    case 5:
      return kPaperAlpha5;
    default:
      throw std::invalid_argument("PaperAlphaHalfTable: k must be 3..5");
  }
}

}  // namespace grw
