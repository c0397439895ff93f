// Histogram (counting-sort) rank selection: the bootstrap engine's one
// quantile replicate kernel.
//
// A quantile replicate is "k-th smallest of m ranks drawn from [0, n)".
// Counting answers it without a single data-dependent branch: bump
// counts[rank] for each draw (O(m) stores, no comparisons), then walk
// the prefix sum to the k-th entry (O(n), vectorized 8 bins/step under
// AVX2). The fill leaves the input row intact, so the engine never
// copies a row into scratch. Against the branchless partition kernel it
// replaced, it was 2.2x faster at n = 16, even at n = 2^20, and 7-12%
// slower at n = 2^21..2^22, sizes no caller reaches
// (bench/RESULTS_stats_parallel.md).
//
// The result is bit-identical to quantile() on the materialized
// resample: the kernel consumes a QuantilePlan (selection.hpp) and
// interpolates `a + frac * (b - a)` exactly as quantile_sorted() does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "stats/selection.hpp"  // QuantilePlan
#include "stats/simd_dispatch.hpp"

namespace sci::stats {

/// p-quantile (per `plan`) of the resample whose sorted-sample ranks
/// are in `row`. `counts` is caller-owned scratch with
/// counts.size() == sorted.size(); all ranks must be < sorted.size().
/// `row` is left intact.
[[nodiscard]] double histogram_select_quantile(std::span<const std::uint32_t> row,
                                               std::span<const double> sorted,
                                               std::span<std::uint32_t> counts,
                                               const QuantilePlan& plan,
                                               const simd::Kernels& kernels) noexcept;

}  // namespace sci::stats
