// Shared-memory parallel loop helpers.
//
// Hot kernels (k-NN graph construction, CRF gradient accumulation, graph
// propagation sweeps) are expressed through parallel_for / parallel_reduce.
// Each call splits its range into num_threads() contiguous chunks and runs
// them on that many std::threads, spawned and joined per call; a range
// shorter than two items per worker runs serially on the caller. The worker
// count defaults to GRAPHNER_THREADS, else hardware_concurrency(), and
// set_num_threads overrides it. parallel_reduce's chunking follows the
// worker count, so floating-point sums can differ between worker counts.
#pragma once

#include <cstddef>
#include <functional>

namespace graphner::util {

/// Number of worker threads parallel_for will use (>= 1).
[[nodiscard]] int num_threads() noexcept;

/// Override the worker count (clamped to >= 1). Thread-safe.
void set_num_threads(int n) noexcept;

/// Invoke fn(i) for i in [begin, end), split across workers.
/// fn must be safe to call concurrently for distinct i.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Invoke fn(chunk_begin, chunk_end) over contiguous chunks; lower overhead
/// than per-index dispatch for cheap loop bodies.
void parallel_for_chunked(std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t, std::size_t)>& fn);

/// parallel map-reduce: each worker accumulates into its own Acc with
/// fn(acc, i); partials are merged with merge(lhs, rhs) on the caller thread.
template <typename Acc, typename Fn, typename Merge>
[[nodiscard]] Acc parallel_reduce(std::size_t begin, std::size_t end, Acc init,
                                  Fn&& fn, Merge&& merge);

}  // namespace graphner::util

#include "src/util/parallel_impl.hpp"
