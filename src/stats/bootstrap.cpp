#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "stats/bootstrap_detail.hpp"
#include "stats/descriptive.hpp"
#include "stats/special_functions.hpp"

namespace sci::stats {

// ---------------------------------------------------------------------------
// Rank trick behind the quantile kernels.
//
// Sort the sample once and precompute rank[i] = position of xs[i] in the
// sorted order (ties broken by index, so ranks are a strict total order
// refining the value order). A resample of values then becomes a
// resample of ranks drawn with the *same* RNG calls, and the k-th order
// statistic of the resample is sorted[k-th smallest resampled rank] --
// equal values share a value even though their ranks differ, so ties
// cannot perturb the result. BootstrapEngine answers each replicate by
// histogram selection over those ranks (histogram_select.hpp) and never
// materializes a resample vector of doubles.
// ---------------------------------------------------------------------------

namespace detail {

void require_valid(std::span<const double> xs, std::size_t replicates) {
  if (xs.size() < 2) throw std::invalid_argument("bootstrap: need n >= 2");
  if (replicates == 0) throw std::invalid_argument("bootstrap: replicates >= 1");
}

void rank_into(std::span<const double> xs, std::vector<double>& sorted,
               std::vector<std::uint32_t>& rank,
               std::vector<std::uint32_t>& order_scratch) {
  const std::size_t n = xs.size();
  order_scratch.resize(n);
  std::iota(order_scratch.begin(), order_scratch.end(), std::uint32_t{0});
  std::sort(order_scratch.begin(), order_scratch.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (xs[a] != xs[b]) return xs[a] < xs[b];
              return a < b;
            });
  sorted.resize(n);
  rank.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    sorted[pos] = xs[order_scratch[pos]];
    rank[order_scratch[pos]] = static_cast<std::uint32_t>(pos);
  }
}

double loo_quantile(std::span<const double> sorted, std::size_t skip, double p,
                    QuantileMethod method) {
  const std::size_t m = sorted.size() - 1;
  const auto at = [&](std::size_t pos) { return sorted[pos < skip ? pos : pos + 1]; };
  if (m == 1) return at(0);
  switch (method) {
    case QuantileMethod::kR1InverseEcdf: {
      if (p == 0.0) return at(0);
      const auto idx = static_cast<std::size_t>(std::ceil(p * static_cast<double>(m))) - 1;
      return at(std::min(idx, m - 1));
    }
    case QuantileMethod::kR6Weibull: {
      const double h = (static_cast<double>(m) + 1.0) * p;
      if (h <= 1.0) return at(0);
      if (h >= static_cast<double>(m)) return at(m - 1);
      const auto k = static_cast<std::size_t>(std::floor(h));
      const double frac = h - static_cast<double>(k);
      return at(k - 1) + frac * (at(k) - at(k - 1));
    }
    case QuantileMethod::kR7Linear: {
      const double h = (static_cast<double>(m) - 1.0) * p;
      const auto k = static_cast<std::size_t>(std::floor(h));
      const double frac = h - static_cast<double>(k);
      if (k + 1 >= m) return at(m - 1);
      return at(k) + frac * (at(k + 1) - at(k));
    }
  }
  throw std::logic_error("bootstrap: unknown quantile method");
}

void jackknife_mean_range(std::span<const double> xs, double* jack, std::size_t lo,
                          std::size_t hi) noexcept {
  const std::size_t n = xs.size();
  for (std::size_t i = lo; i < hi; ++i) {
    double sum = 0.0, comp = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double y = xs[j] - comp;
      const double t = sum + y;
      comp = (t - sum) - y;
      sum = t;
    }
    jack[i] = sum / static_cast<double>(n - 1);
  }
}

void jackknife_quantile_range(std::span<const double> sorted, const std::uint32_t* rank,
                              double p, QuantileMethod method, double* jack,
                              std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    jack[i] = loo_quantile(sorted, rank[i], p, method);
  }
}

Interval bca_interval(std::span<const double> dist, double theta_hat,
                      std::span<const double> jack, double confidence) {
  // Bias correction z0: fraction of bootstrap stats below the point estimate.
  std::size_t below = 0;
  for (double v : dist) {
    if (v < theta_hat) ++below;
  }
  double frac = static_cast<double>(below) / static_cast<double>(dist.size());
  frac = std::clamp(frac, 1e-10, 1.0 - 1e-10);
  const double z0 = inverse_normal_cdf(frac);

  // Acceleration from jackknife influence values.
  const double jack_mean = arithmetic_mean(jack);
  double num = 0.0, den = 0.0;
  for (double v : jack) {
    const double d = jack_mean - v;
    num += d * d * d;
    den += d * d;
  }
  const double a = (den > 0.0) ? num / (6.0 * std::pow(den, 1.5)) : 0.0;

  const double alpha = 1.0 - confidence;
  auto adjusted = [&](double level) {
    const double z = inverse_normal_cdf(level);
    const double adj = normal_cdf(z0 + (z0 + z) / (1.0 - a * (z0 + z)));
    return std::clamp(adj, 0.0, 1.0);
  };
  return {quantile_sorted(dist, adjusted(alpha / 2.0)),
          quantile_sorted(dist, adjusted(1.0 - alpha / 2.0)), confidence};
}

}  // namespace detail

ResampleStat ResampleStat::quantile(double p, QuantileMethod method) {
  if (p < 0.0 || p > 1.0) throw std::domain_error("ResampleStat::quantile: p in [0,1]");
  ResampleStat s;
  s.kind_ = Kind::kQuantile;
  s.p_ = p;
  s.method_ = method;
  return s;
}

double ResampleStat::evaluate(std::span<const double> xs) const {
  switch (kind_) {
    case Kind::kMean:
      return arithmetic_mean(xs);
    case Kind::kQuantile:
      return ::sci::stats::quantile(xs, p_, method_);
    case Kind::kCustom:
      return fn_(xs);
  }
  throw std::logic_error("ResampleStat: unknown kind");
}

std::vector<double> bootstrap_distribution(std::span<const double> xs,
                                           const Statistic& statistic,
                                           std::size_t replicates, std::uint64_t seed) {
  return bootstrap_distribution(xs, ResampleStat::custom(statistic), replicates, seed);
}

Interval bootstrap_percentile_ci(std::span<const double> xs, const Statistic& statistic,
                                 std::size_t replicates, double confidence,
                                 std::uint64_t seed) {
  return bootstrap_percentile_ci(xs, ResampleStat::custom(statistic), replicates,
                                 confidence, seed);
}

Interval bootstrap_bca_ci(std::span<const double> xs, const Statistic& statistic,
                          std::size_t replicates, double confidence, std::uint64_t seed) {
  return bootstrap_bca_ci(xs, ResampleStat::custom(statistic), replicates, confidence,
                          seed);
}

}  // namespace sci::stats
