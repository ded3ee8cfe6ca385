// Hardware thread count and a parallel sort for one-shot fan-outs.
//
// There is one fan-out primitive, ChainPool (util/chain_pool.h);
// ParallelSort runs its chunk sorts and merges on the shared pool.

#pragma once

#include <algorithm>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "util/chain_pool.h"

namespace grw {

/// Number of hardware threads, at least 1.
inline unsigned HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Sorts [begin, end) with std::sort semantics, fanning out across up to
/// `threads` threads of the shared pool: the range is cut into `threads`
/// equal chunks, each chunk is sorted independently, and adjacent chunks
/// are merged pairwise (log(chunks) rounds of std::inplace_merge,
/// themselves parallel).
/// Falls back to a plain std::sort below a size threshold where the
/// fan-out cost would dominate.
/// Determinism: like std::sort this is NOT stable. When `<` is a total
/// order over element values (ints, the builder's lexicographic pairs)
/// the output is bit-identical at any thread count; with a comparator
/// that only orders a key, equivalent elements may land in
/// thread-count-dependent order — don't use this where the engine's
/// bit-identical guarantee must extend to such payloads.
template <typename Iter>
void ParallelSort(Iter begin, Iter end, unsigned threads = 0) {
  const size_t n = static_cast<size_t>(end - begin);
  if (threads == 0) threads = HardwareThreads();
  constexpr size_t kSerialCutoff = 1 << 15;
  if (n < kSerialCutoff || threads <= 1) {
    std::sort(begin, end);
    return;
  }
  // Chunk boundaries; bounds.size() - 1 chunks, each sorted independently.
  std::vector<size_t> bounds(threads + 1);
  for (size_t c = 0; c <= threads; ++c) bounds[c] = n * c / threads;
  ChainPool& pool = ChainPool::Shared();
  pool.ForEach(
      threads,
      [&](size_t c) { std::sort(begin + bounds[c], begin + bounds[c + 1]); },
      threads);
  // Pairwise merge rounds until one chunk remains. An odd trailing chunk
  // is carried into the next round unchanged.
  while (bounds.size() > 2) {
    const size_t chunks = bounds.size() - 1;
    const size_t pairs = chunks / 2;
    pool.ForEach(
        pairs,
        [&](size_t p) {
          std::inplace_merge(begin + bounds[2 * p], begin + bounds[2 * p + 1],
                             begin + bounds[2 * p + 2]);
        },
        threads);
    std::vector<size_t> next;
    next.reserve(pairs + 2);
    next.push_back(0);
    for (size_t i = 2; i < bounds.size(); i += 2) next.push_back(bounds[i]);
    if (chunks % 2 == 1) next.push_back(bounds.back());
    bounds = std::move(next);
  }
}

/// Convenience overload for whole-vector sorts.
template <typename T>
void ParallelSort(std::vector<T>& v, unsigned threads = 0) {
  ParallelSort(v.begin(), v.end(), threads);
}

}  // namespace grw
