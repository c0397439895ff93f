// Order-statistic plumbing for the bootstrap quantile replicate. A
// quantile replicate is "k-th smallest of n resampled ranks"; the plan
// below says which order statistics a (p, method, n) quantile needs,
// the min/max scans answer the extreme plans, and SelectedPair carries
// the interpolation neighbors the histogram kernels
// (histogram_select.hpp, simd_dispatch.hpp) return.
#pragma once

#include <cstddef>
#include <cstdint>

#include "stats/descriptive.hpp"  // QuantileMethod

namespace sci::stats {

/// k-th and (k+1)-th smallest of a multiset: the interpolation
/// neighbors R6/R7 quantiles need.
struct SelectedPair {
  std::uint32_t kth = 0;   ///< k-th smallest
  std::uint32_t next = 0;  ///< (k+1)-th smallest
};

/// Smallest / largest of a[0..n); n >= 1.
[[nodiscard]] std::uint32_t min_of(const std::uint32_t* a, std::size_t n) noexcept;
[[nodiscard]] std::uint32_t max_of(const std::uint32_t* a, std::size_t n) noexcept;

/// Which order statistics a (p, method, n) quantile needs, precomputed
/// so a hot loop over same-length resamples decides it once. The
/// histogram replicate kernel (histogram_select.hpp) interpolates
/// `a + frac * (b - a)` exactly as quantile_sorted() does, which is
/// what makes it bit-identical to quantile() on a materialized
/// resample.
struct QuantilePlan {
  enum class Mode {
    kMin,     ///< minimum of the resample
    kMax,     ///< maximum
    kSingle,  ///< the k-th order statistic, no interpolation (R1)
    kPair,    ///< interpolate between the k-th and (k+1)-th
  };
  Mode mode = Mode::kSingle;
  std::size_t k = 0;    ///< 0-based rank (kSingle / kPair)
  double frac = 0.0;    ///< interpolation weight (kPair)
};

/// Plan for the p-quantile of an n-element resample. Mirrors
/// quantile_sorted()'s per-method arithmetic term for term.
[[nodiscard]] QuantilePlan make_quantile_plan(std::size_t n, double p,
                                              QuantileMethod method);

}  // namespace sci::stats
