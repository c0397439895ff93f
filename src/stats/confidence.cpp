#include "stats/confidence.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "stats/parallel.hpp"
#include "stats/special_functions.hpp"

namespace sci::stats {

Interval mean_confidence_interval(std::span<const double> xs, double confidence) {
  if (xs.size() < 2) throw std::invalid_argument("mean_confidence_interval: need n >= 2");
  const double mean = arithmetic_mean(xs);
  const double s = sample_stddev(xs);
  const auto n = static_cast<double>(xs.size());
  const StudentT t{n - 1.0};
  const double half = t.critical_two_sided(1.0 - confidence) * s / std::sqrt(n);
  return {mean - half, mean + half, confidence};
}

Interval quantile_confidence_interval(std::span<const double> xs, double p,
                                      double confidence) {
  const auto sorted = sorted_copy(xs);
  return quantile_confidence_interval_sorted(sorted, p, confidence);
}

RankInterval quantile_confidence_ranks(std::size_t n, double p, double confidence) {
  if (n < 6) throw std::invalid_argument("quantile_confidence_interval: need n > 5");
  if (p <= 0.0 || p >= 1.0)
    throw std::domain_error("quantile_confidence_interval: p in (0,1)");
  const double alpha = 1.0 - confidence;
  const double z = inverse_normal_cdf(1.0 - alpha / 2.0);
  const auto nd = static_cast<double>(n);
  // Le Boudec: ranks floor(np - z sqrt(np(1-p))) and
  // ceil(np + z sqrt(np(1-p))) + 1, clamped to [1, n] (1-based).
  const double spread = z * std::sqrt(nd * p * (1.0 - p));
  auto lo_rank = static_cast<long>(std::floor(nd * p - spread));
  auto hi_rank = static_cast<long>(std::ceil(nd * p + spread)) + 1;
  lo_rank = std::max<long>(lo_rank, 1);
  hi_rank = std::min<long>(hi_rank, static_cast<long>(n));
  return {static_cast<std::size_t>(lo_rank - 1), static_cast<std::size_t>(hi_rank - 1)};
}

Interval quantile_confidence_interval_sorted(std::span<const double> sorted, double p,
                                             double confidence) {
  const RankInterval ranks = quantile_confidence_ranks(sorted.size(), p, confidence);
  return {sorted[ranks.lower], sorted[ranks.upper], confidence};
}

Interval median_confidence_interval(std::span<const double> xs, double confidence) {
  return quantile_confidence_interval(xs, 0.5, confidence);
}

Interval median_interval_sorted(std::span<const double> sorted, double confidence) {
  if (sorted.empty()) throw std::invalid_argument("median_interval_sorted: empty sample");
  if (sorted.size() > 5) return quantile_confidence_interval_sorted(sorted, 0.5, confidence);
  return {sorted.front(), sorted.back(), confidence};
}

std::vector<QuantileSummary> grouped_quantile_summary(
    std::span<const std::span<const double>> groups, double p, double confidence,
    const ExecPolicy& policy) {
  std::vector<QuantileSummary> out(groups.size());
  policy_partition(policy, groups.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
    std::vector<double> sorted;  // per-worker scratch, reused across its groups
    for (std::size_t g = lo; g < hi; ++g) {
      if (groups[g].empty())
        throw std::invalid_argument("grouped_quantile_summary: empty group");
      sorted.assign(groups[g].begin(), groups[g].end());
      std::sort(sorted.begin(), sorted.end());
      QuantileSummary& s = out[g];
      s.n = sorted.size();
      s.value = quantile_sorted(sorted, p);
      if (s.n > 5 && p > 0.0 && p < 1.0) {
        s.ci = quantile_confidence_interval_sorted(sorted, p, confidence);
        s.ci_rank_based = true;
      } else {
        s.ci = {sorted.front(), sorted.back(), confidence};
        s.ci_rank_based = false;
      }
    }
  });
  return out;
}

std::vector<QuantileSummary> grouped_quantile_summary(
    std::span<const std::vector<double>> groups, double p, double confidence,
    const ExecPolicy& policy) {
  std::vector<std::span<const double>> views;
  views.reserve(groups.size());
  for (const auto& g : groups) views.emplace_back(g);
  return grouped_quantile_summary(std::span<const std::span<const double>>(views), p,
                                  confidence, policy);
}

std::size_t required_samples_mean(std::span<const double> pilot, double relative_error,
                                  double confidence) {
  if (pilot.size() < 2) throw std::invalid_argument("required_samples_mean: pilot n >= 2");
  if (relative_error <= 0.0)
    throw std::domain_error("required_samples_mean: relative_error > 0");
  const double mean = arithmetic_mean(pilot);
  if (mean == 0.0) throw std::domain_error("required_samples_mean: zero pilot mean");
  const double s = sample_stddev(pilot);
  const StudentT t{static_cast<double>(pilot.size()) - 1.0};
  const double tcrit = t.critical_two_sided(1.0 - confidence);
  const double n = std::pow(s * tcrit / (relative_error * std::fabs(mean)), 2.0);
  return static_cast<std::size_t>(std::ceil(std::max(n, 2.0)));
}

bool quantile_ci_converged(std::span<const double> xs, double p, double relative_error,
                           double confidence) {
  if (xs.size() < 6) return false;
  // One sort feeds both the CI ranks and the center quantile; this runs
  // after every adaptive sample (kCiRecomputes counts how often).
  const auto sorted = sorted_copy(xs);
  const Interval ci = quantile_confidence_interval_sorted(sorted, p, confidence);
  const double center = quantile_sorted(sorted, p);
  if (center == 0.0) return ci.width() == 0.0;
  return ci.lower >= center * (1.0 - relative_error) &&
         ci.upper <= center * (1.0 + relative_error);
}

}  // namespace sci::stats
