#include "stats/histogram_select.hpp"

namespace sci::stats {

double histogram_select_quantile(std::span<const std::uint32_t> row,
                                 std::span<const double> sorted,
                                 std::span<std::uint32_t> counts,
                                 const QuantilePlan& plan,
                                 const simd::Kernels& kernels) noexcept {
  const std::size_t m = row.size();
  // Extremes need no histogram at all: a straight min/max scan of the
  // draws.
  if (plan.mode == QuantilePlan::Mode::kMin) return sorted[min_of(row.data(), m)];
  if (plan.mode == QuantilePlan::Mode::kMax) return sorted[max_of(row.data(), m)];

  kernels.histogram_fill(row.data(), m, counts.data(), counts.size());
  if (plan.mode == QuantilePlan::Mode::kSingle) {
    return sorted[kernels.rank_select(counts.data(), counts.size(), plan.k)];
  }
  const SelectedPair pair = kernels.rank_select_pair(counts.data(), counts.size(), plan.k);
  const double a_val = sorted[pair.kth];
  const double b_val = sorted[pair.next];
  return a_val + plan.frac * (b_val - a_val);
}

}  // namespace sci::stats
