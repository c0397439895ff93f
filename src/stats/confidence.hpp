// Confidence intervals (Sections 3.1.2, 3.1.3, 4.2.2 of the paper).
//
//  - t-based CI of the mean (parametric; requires ~normal samples)
//  - rank-based CI of the median / arbitrary quantiles (nonparametric,
//    Le Boudec's formula) -- the paper's recommended default for
//    right-skewed HPC measurements
//  - sample-size planning: how many measurements until the CI is within
//    a requested fraction of the center (Rule 5 / Section 4.2.2)
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/exec_policy.hpp"

namespace sci::stats {

struct Interval {
  double lower = 0.0;
  double upper = 0.0;
  double confidence = 0.0;  ///< e.g. 0.95
  [[nodiscard]] double width() const noexcept { return upper - lower; }
  [[nodiscard]] bool contains(double v) const noexcept { return lower <= v && v <= upper; }
  /// Non-overlap of two CIs at level 1-alpha implies a statistically
  /// significant difference at that level (Section 3.2).
  [[nodiscard]] bool overlaps(const Interval& other) const noexcept {
    return lower <= other.upper && other.lower <= upper;
  }
};

/// CI of the mean via Student's t with n-1 dof:
/// [x - t(n-1, a/2) s/sqrt(n), x + t(n-1, a/2) s/sqrt(n)].
/// Requires n >= 2. Valid only for approximately normal samples; run a
/// normality diagnostic first (Rule 6).
[[nodiscard]] Interval mean_confidence_interval(std::span<const double> xs,
                                                double confidence = 0.95);

/// Nonparametric CI of the p-quantile using rank statistics
/// (Le Boudec 2011). Requires n > 5 for meaningful output. The returned
/// bounds are observed values; the interval may be asymmetric.
[[nodiscard]] Interval quantile_confidence_interval(std::span<const double> xs, double p,
                                                    double confidence = 0.95);

/// Same CI for data already sorted ascending (no copy, no sort). Hot
/// callers that also need a quantile of the same sample should sort
/// once and pair this with quantile_sorted().
[[nodiscard]] Interval quantile_confidence_interval_sorted(std::span<const double> sorted,
                                                           double p,
                                                           double confidence = 0.95);

/// 0-based ranks of the two order statistics that bound the p-quantile's
/// CI in a sample of n > 5: the ranks
/// quantile_confidence_interval_sorted() reads. Callers that select
/// order statistics instead of sorting place exactly these.
struct RankInterval {
  std::size_t lower = 0;
  std::size_t upper = 0;
};
[[nodiscard]] RankInterval quantile_confidence_ranks(std::size_t n, double p,
                                                     double confidence = 0.95);

/// Shorthand for the median (p = 0.5).
[[nodiscard]] Interval median_confidence_interval(std::span<const double> xs,
                                                  double confidence = 0.95);

/// The interval reported next to a median everywhere this repo
/// summarizes its own runs (bench metrics, the regression detector's
/// baseline): the rank CI when n > 5, else the observed [min, max].
/// `sorted` ascending; throws std::invalid_argument when empty.
[[nodiscard]] Interval median_interval_sorted(std::span<const double> sorted,
                                              double confidence = 0.95);

/// Number of measurements needed so that the 1-alpha CI of the mean is
/// within +-e*mean, estimated from a pilot sample (Section 4.2.2,
/// normally distributed data): n = (s * t(n-1, a/2) / (e*mean))^2.
[[nodiscard]] std::size_t required_samples_mean(std::span<const double> pilot,
                                                double relative_error,
                                                double confidence = 0.95);

/// Center + CI of one group, as reported per campaign cell / config.
struct QuantileSummary {
  double value = 0.0;        ///< the p-quantile itself
  Interval ci;               ///< rank CI when possible, observed [min, max] otherwise
  bool ci_rank_based = false;  ///< false: n <= 5 (or degenerate p) forced the fallback
  std::size_t n = 0;
};

/// Per-group p-quantile + CI with one sort per group, fanned out over
/// `policy.threads` pooled workers. Output order matches input order and
/// is independent of the thread count; each entry is bit-identical to
/// the scalar quantile()/quantile_confidence_interval() pair on the same
/// group. Throws on an empty group.
[[nodiscard]] std::vector<QuantileSummary> grouped_quantile_summary(
    std::span<const std::span<const double>> groups, double p, double confidence = 0.95,
    const ExecPolicy& policy = {});

/// Convenience overload for vector-of-vectors group sets.
[[nodiscard]] std::vector<QuantileSummary> grouped_quantile_summary(
    std::span<const std::vector<double>> groups, double p, double confidence = 0.95,
    const ExecPolicy& policy = {});

/// Sequential stopping rule for non-normal data: true once the
/// nonparametric CI of the p-quantile is within +-relative_error of the
/// quantile itself (Section 4.2.2). Requires n > 5.
[[nodiscard]] bool quantile_ci_converged(std::span<const double> xs, double p,
                                         double relative_error, double confidence = 0.95);

}  // namespace sci::stats
