// Normality diagnostics (Rule 6: "Do not assume normality of collected
// data without diagnostic checking").
//
//  - Shapiro-Wilk (Royston's AS R94 approximation): the paper cites
//    Razali & Wah showing it is the most powerful of the common tests.
//  - Anderson-Darling with case-3 (estimated parameters) correction.
//  - Jarque-Bera moment test (cheap large-n screen).
//  - Q-Q plot data + the straight-line correlation diagnostic the paper
//    recommends for visually confirming test outcomes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sci::stats {

struct TestResult {
  double statistic = 0.0;
  double p_value = 0.0;
  /// Convenience: reject normality at significance alpha?
  [[nodiscard]] bool reject(double alpha = 0.05) const noexcept { return p_value < alpha; }
};

/// Shapiro-Wilk W test. Valid for 3 <= n <= 5000; larger samples throw
/// (the paper warns the test "may be misleading for large sample sizes";
/// subsample or use block means instead).
[[nodiscard]] TestResult shapiro_wilk(std::span<const double> xs);
/// As shapiro_wilk, for data already sorted ascending (no copy).
[[nodiscard]] TestResult shapiro_wilk_sorted(std::span<const double> sorted);

/// Anderson-Darling A^2* test for normality with estimated mean/stddev
/// (Stephens' case 3), p-value per D'Agostino & Stephens (1986).
[[nodiscard]] TestResult anderson_darling(std::span<const double> xs);

/// Jarque-Bera skewness/kurtosis test; chi^2(2) asymptotics.
[[nodiscard]] TestResult jarque_bera(std::span<const double> xs);

/// One point of a normal Q-Q plot.
struct QQPoint {
  double theoretical = 0.0;  ///< standard normal quantile
  double sample = 0.0;       ///< observed order statistic
};

/// Normal Q-Q plot data: sample order statistics against standard normal
/// quantiles at plotting positions (i - 0.375) / (n + 0.25) (Blom).
/// For n > max_points the sample is thinned evenly (plots do not need
/// 1M points; statistics elsewhere always use the full series).
[[nodiscard]] std::vector<QQPoint> qq_normal(std::span<const double> xs,
                                             std::size_t max_points = 512);
/// As qq_normal, for data already sorted ascending (no copy).
[[nodiscard]] std::vector<QQPoint> qq_normal_sorted(std::span<const double> sorted,
                                                    std::size_t max_points = 512);

/// Pearson correlation of the Q-Q relation; ~1 for normal data. This is
/// the probability-plot correlation coefficient (PPCC) diagnostic.
[[nodiscard]] double qq_correlation(std::span<const double> xs);
/// As qq_correlation, for data already sorted ascending (no copy).
[[nodiscard]] double qq_correlation_sorted(std::span<const double> sorted);

}  // namespace sci::stats
