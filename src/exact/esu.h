// ESU (FANMOD) enumeration of all connected induced k-node subgraphs.
//
// Wernicke's ESU enumerates each connected k-vertex subgraph exactly once:
// grow from an anchor vertex v, only ever adding vertices with id > v that
// are in the *exclusive* neighborhood of the current partial subgraph (so
// each subgraph is discovered from its minimum vertex through a unique
// extension order).
//
// The paper obtains its ground-truth concentrations from "well-tuned
// enumeration methods" [3, 13]; ESU with O(1) bitmask classification is our
// equivalent. It is also the reference oracle the sampling estimators are
// tested against, and supplies |H(d)| / |R(d)| for d >= 3 in tests.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace grw {

/// Calls visit(nodes) once for every connected induced k-node subgraph of
/// g, with nodes in the order ESU discovered them (anchor first; NOT
/// sorted). 1 <= k <= 32. The span is invalidated when visit returns.
void ForEachConnectedSubgraph(
    const Graph& g, int k,
    const std::function<void(std::span<const VertexId>)>& visit);

/// Exact induced graphlet counts by enumeration, indexed by catalog id.
/// 3 <= k <= kMaxGraphletSize. Time grows with the number of k-subgraphs;
/// intended for ground truth on small/medium graphs (paper Table 5 computes
/// 5-node ground truth only for its four smallest datasets for the same
/// reason). Each subgraph's adjacency mask comes from the neighbor scans
/// the enumeration already makes; there is no edge probe per subgraph.
std::vector<int64_t> CountGraphletsEsu(const Graph& g, int k);

/// Number of connected induced d-node subgraphs |H(d)|.
uint64_t CountConnectedSubgraphs(const Graph& g, int d);

}  // namespace grw
