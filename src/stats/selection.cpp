#include "stats/selection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sci::stats {

std::uint32_t min_of(const std::uint32_t* a, std::size_t n) noexcept {
  std::uint32_t best = a[0];
  for (std::size_t i = 1; i < n; ++i) best = std::min(best, a[i]);
  return best;
}

std::uint32_t max_of(const std::uint32_t* a, std::size_t n) noexcept {
  std::uint32_t best = a[0];
  for (std::size_t i = 1; i < n; ++i) best = std::max(best, a[i]);
  return best;
}

QuantilePlan make_quantile_plan(std::size_t n, double p, QuantileMethod method) {
  QuantilePlan plan;
  switch (method) {
    case QuantileMethod::kR1InverseEcdf: {
      if (p == 0.0) {
        plan.mode = QuantilePlan::Mode::kMin;
        return plan;
      }
      plan.mode = QuantilePlan::Mode::kSingle;
      plan.k = std::min(
          static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))) - 1, n - 1);
      return plan;
    }
    case QuantileMethod::kR6Weibull: {
      const double h = (static_cast<double>(n) + 1.0) * p;
      if (h <= 1.0) {
        plan.mode = QuantilePlan::Mode::kMin;
        return plan;
      }
      if (h >= static_cast<double>(n)) {
        plan.mode = QuantilePlan::Mode::kMax;
        return plan;
      }
      const auto k = static_cast<std::size_t>(std::floor(h));
      plan.mode = QuantilePlan::Mode::kPair;
      plan.k = k - 1;
      plan.frac = h - static_cast<double>(k);
      return plan;
    }
    case QuantileMethod::kR7Linear: {
      const double h = (static_cast<double>(n) - 1.0) * p;
      const auto k = static_cast<std::size_t>(std::floor(h));
      if (k + 1 >= n) {
        plan.mode = QuantilePlan::Mode::kMax;
        return plan;
      }
      plan.mode = QuantilePlan::Mode::kPair;
      plan.k = k;
      plan.frac = h - static_cast<double>(k);
      return plan;
    }
  }
  throw std::logic_error("make_quantile_plan: unknown quantile method");
}

}  // namespace sci::stats
