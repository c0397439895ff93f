// Bootstrap resampling (Efron & Tibshirani). The paper lists bootstrap
// as a "more advanced" technique beyond its scope; we include it as the
// natural extension for CIs of statistics with no analytic error theory
// (trimmed means, CoV, quantile-regression coefficients, ...).
//
// One resampling path: every entry point runs BootstrapEngine
// (bootstrap_engine.hpp). A statistic is a ResampleStat, a structural
// description (mean / quantile / custom) that lets the engine sort the
// sample once and answer each quantile replicate by histogram rank
// selection over resampled ranks, without materializing a resample of
// doubles. custom() wraps any callable and evaluates it on a
// materialized resample. The Statistic overloads are exactly the
// custom() overloads at the default policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "stats/confidence.hpp"  // Interval
#include "stats/descriptive.hpp"  // QuantileMethod
#include "stats/exec_policy.hpp"

namespace sci::stats {

/// A statistic computed on a resampled series.
using Statistic = std::function<double(std::span<const double>)>;

/// Structural description of a bootstrap statistic. Naming the shape
/// (mean, p-quantile) instead of hiding it behind a callable is what
/// unlocks the rank-selection kernels; custom() keeps full generality
/// at the cost of one materialized resample per replicate.
class ResampleStat {
 public:
  enum class Kind { kMean, kQuantile, kCustom };

  [[nodiscard]] static ResampleStat mean() {
    ResampleStat s;
    s.kind_ = Kind::kMean;
    return s;
  }
  [[nodiscard]] static ResampleStat median() { return quantile(0.5); }
  [[nodiscard]] static ResampleStat quantile(double p,
                                             QuantileMethod method = QuantileMethod::kR7Linear);
  [[nodiscard]] static ResampleStat custom(Statistic fn) {
    ResampleStat s;
    s.kind_ = Kind::kCustom;
    s.fn_ = std::move(fn);
    return s;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] double prob() const noexcept { return p_; }
  [[nodiscard]] QuantileMethod method() const noexcept { return method_; }

  /// Full-sample evaluation; identical to calling the equivalent
  /// Statistic on `xs`.
  [[nodiscard]] double evaluate(std::span<const double> xs) const;

 private:
  ResampleStat() = default;
  Kind kind_ = Kind::kCustom;
  double p_ = 0.5;
  QuantileMethod method_ = QuantileMethod::kR7Linear;
  Statistic fn_;
};

/// Bootstrap distribution of `statistic` over `replicates` resamples
/// with replacement. A pure function of (xs, statistic, replicates,
/// seed, policy.lanes); policy.threads only changes wall time, and the
/// default policy is the single-stream path. With threads > 1 a custom
/// statistic's callable runs concurrently and must be thread-safe.
[[nodiscard]] std::vector<double> bootstrap_distribution(std::span<const double> xs,
                                                         const ResampleStat& statistic,
                                                         std::size_t replicates,
                                                         std::uint64_t seed = 0xb00f,
                                                         const ExecPolicy& policy = {});

/// Percentile-method CI: quantiles of the bootstrap distribution.
[[nodiscard]] Interval bootstrap_percentile_ci(std::span<const double> xs,
                                               const ResampleStat& statistic,
                                               std::size_t replicates = 1000,
                                               double confidence = 0.95,
                                               std::uint64_t seed = 0xb00f,
                                               const ExecPolicy& policy = {});

/// BCa (bias-corrected and accelerated) CI; second-order accurate. The
/// acceleration comes from jackknife influence values: O(n) for
/// quantiles (each leave-one-out order statistic is an index shift in
/// the sorted sample), O(n^2) adds for the mean, and O(n^2) callable
/// work for custom statistics.
[[nodiscard]] Interval bootstrap_bca_ci(std::span<const double> xs,
                                        const ResampleStat& statistic,
                                        std::size_t replicates = 1000,
                                        double confidence = 0.95,
                                        std::uint64_t seed = 0xb00f,
                                        const ExecPolicy& policy = {});

/// Opaque-callable conveniences: the ResampleStat::custom(statistic)
/// overloads above at the default policy.
[[nodiscard]] std::vector<double> bootstrap_distribution(std::span<const double> xs,
                                                         const Statistic& statistic,
                                                         std::size_t replicates,
                                                         std::uint64_t seed = 0xb00f);

[[nodiscard]] Interval bootstrap_percentile_ci(std::span<const double> xs,
                                               const Statistic& statistic,
                                               std::size_t replicates = 1000,
                                               double confidence = 0.95,
                                               std::uint64_t seed = 0xb00f);

[[nodiscard]] Interval bootstrap_bca_ci(std::span<const double> xs,
                                        const Statistic& statistic,
                                        std::size_t replicates = 1000,
                                        double confidence = 0.95,
                                        std::uint64_t seed = 0xb00f);

}  // namespace sci::stats
