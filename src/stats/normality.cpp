#include "stats/normality.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "stats/special_functions.hpp"

namespace sci::stats {
namespace {

double poly(std::span<const double> coeffs, double x) {
  // coeffs[0] + coeffs[1] x + coeffs[2] x^2 + ...
  double result = 0.0;
  for (std::size_t i = coeffs.size(); i > 0; --i) result = result * x + coeffs[i - 1];
  return result;
}

}  // namespace

TestResult shapiro_wilk(std::span<const double> xs) {
  return shapiro_wilk_sorted(sorted_copy(xs));
}

TestResult shapiro_wilk_sorted(std::span<const double> x) {
  const std::size_t n = x.size();
  if (n < 3) throw std::invalid_argument("shapiro_wilk: need n >= 3");
  if (n > 5000) throw std::invalid_argument("shapiro_wilk: n <= 5000 (subsample larger series)");
  if (x.front() == x.back()) throw std::invalid_argument("shapiro_wilk: zero range");

  // Expected normal order statistics m_i (Blom approximation), then the
  // Shapiro-Wilk weights a_i per Royston (1992, 1995), AS R94.
  const auto nd = static_cast<double>(n);
  std::vector<double> m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = inverse_normal_cdf((static_cast<double>(i + 1) - 0.375) / (nd + 0.25));
  }
  double ssq_m = 0.0;
  for (double v : m) ssq_m += v * v;

  std::vector<double> a(n);
  const double rsn = 1.0 / std::sqrt(nd);
  if (n == 3) {
    a[0] = -std::sqrt(0.5);
    a[1] = 0.0;
    a[2] = std::sqrt(0.5);
  } else {
    // Royston's polynomial corrections for the two extreme weights.
    static constexpr double c1[] = {0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056};
    static constexpr double c2[] = {0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633};
    const double norm = std::sqrt(ssq_m);
    const double an = m[n - 1] / norm + poly(c1, rsn);
    a[n - 1] = an;
    a[0] = -an;
    std::size_t i1 = 1;
    double phi;
    if (n > 5) {
      const double an1 = m[n - 2] / norm + poly(c2, rsn);
      a[n - 2] = an1;
      a[1] = -an1;
      i1 = 2;
      phi = (ssq_m - 2.0 * m[n - 1] * m[n - 1] - 2.0 * m[n - 2] * m[n - 2]) /
            (1.0 - 2.0 * an * an - 2.0 * an1 * an1);
    } else {
      phi = (ssq_m - 2.0 * m[n - 1] * m[n - 1]) / (1.0 - 2.0 * an * an);
    }
    const double sqrt_phi = std::sqrt(phi);
    for (std::size_t i = i1; i < n - i1; ++i) a[i] = m[i] / sqrt_phi;
  }

  // W = (sum a_i x_(i))^2 / sum (x_i - mean)^2.
  const double mean = arithmetic_mean(x);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += a[i] * x[i];
    den += (x[i] - mean) * (x[i] - mean);
  }
  const double w = num * num / den;

  // p-value via Royston's normalizing transformation of 1 - W.
  double p_value;
  if (n == 3) {
    constexpr double pi6 = 1.90985931710274;   // 6/pi
    constexpr double stqr = 1.04719755119660;  // asin(sqrt(3/4))
    p_value = pi6 * (std::asin(std::sqrt(w)) - stqr);
    p_value = std::clamp(p_value, 0.0, 1.0);
  } else {
    const double lw = std::log(1.0 - w);
    double mu, sigma;
    if (n <= 11) {
      const double g = -2.273 + 0.459 * nd;
      mu = 0.5440 - 0.39978 * nd + 0.025054 * nd * nd - 0.0006714 * nd * nd * nd;
      sigma = std::exp(1.3822 - 0.77857 * nd + 0.062767 * nd * nd - 0.0020322 * nd * nd * nd);
      const double z = (-std::log(g - lw) - mu) / sigma;
      p_value = 1.0 - normal_cdf(z);
    } else {
      const double ln = std::log(nd);
      mu = -1.5861 - 0.31082 * ln - 0.083751 * ln * ln + 0.0038915 * ln * ln * ln;
      sigma = std::exp(-0.4803 - 0.082676 * ln + 0.0030302 * ln * ln);
      const double z = (lw - mu) / sigma;
      p_value = 1.0 - normal_cdf(z);
    }
  }
  return {w, p_value};
}

TestResult anderson_darling(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n < 8) throw std::invalid_argument("anderson_darling: need n >= 8");
  const auto x = sorted_copy(xs);
  const double mean = arithmetic_mean(x);
  const double s = sample_stddev(x);
  if (s == 0.0) throw std::invalid_argument("anderson_darling: zero variance");

  const auto nd = static_cast<double>(n);
  double a2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double zi = normal_cdf((x[i] - mean) / s);
    const double zni = normal_cdf((x[n - 1 - i] - mean) / s);
    // Clamp away from {0,1}: extreme observations would otherwise produce
    // log(0) with heavy-tailed data.
    const double fi = std::clamp(zi, 1e-15, 1.0 - 1e-15);
    const double fni = std::clamp(zni, 1e-15, 1.0 - 1e-15);
    a2 += (2.0 * static_cast<double>(i + 1) - 1.0) * (std::log(fi) + std::log1p(-fni));
  }
  a2 = -nd - a2 / nd;
  // Case-3 small-sample correction (mean and variance estimated).
  const double a2_star = a2 * (1.0 + 0.75 / nd + 2.25 / (nd * nd));

  // D'Agostino & Stephens Table 4.9 p-value approximation.
  double p;
  if (a2_star >= 0.6) {
    p = std::exp(1.2937 - 5.709 * a2_star + 0.0186 * a2_star * a2_star);
  } else if (a2_star >= 0.34) {
    p = std::exp(0.9177 - 4.279 * a2_star - 1.38 * a2_star * a2_star);
  } else if (a2_star >= 0.2) {
    p = 1.0 - std::exp(-8.318 + 42.796 * a2_star - 59.938 * a2_star * a2_star);
  } else {
    p = 1.0 - std::exp(-13.436 + 101.14 * a2_star - 223.73 * a2_star * a2_star);
  }
  return {a2_star, std::clamp(p, 0.0, 1.0)};
}

TestResult jarque_bera(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n < 8) throw std::invalid_argument("jarque_bera: need n >= 8");
  const double g1 = skewness(xs);
  const double g2 = excess_kurtosis(xs);
  const auto nd = static_cast<double>(n);
  const double jb = nd / 6.0 * (g1 * g1 + g2 * g2 / 4.0);
  const ChiSquared chi2{2.0};
  return {jb, 1.0 - chi2.cdf(jb)};
}

std::vector<QQPoint> qq_normal(std::span<const double> xs, std::size_t max_points) {
  return qq_normal_sorted(sorted_copy(xs), max_points);
}

std::vector<QQPoint> qq_normal_sorted(std::span<const double> sorted, std::size_t max_points) {
  if (sorted.empty()) throw std::invalid_argument("qq_normal: empty input");
  const std::size_t n = sorted.size();
  const auto nd = static_cast<double>(n);
  const std::size_t points = std::min(n, max_points);
  std::vector<QQPoint> out;
  out.reserve(points);
  for (std::size_t k = 0; k < points; ++k) {
    // Even thinning over the order statistics.
    const std::size_t i =
        (points == n) ? k : (k * (n - 1)) / (points - 1 == 0 ? 1 : points - 1);
    const double pos = (static_cast<double>(i + 1) - 0.375) / (nd + 0.25);
    out.push_back({inverse_normal_cdf(pos), sorted[i]});
  }
  return out;
}

double qq_correlation(std::span<const double> xs) {
  return qq_correlation_sorted(sorted_copy(xs));
}

double qq_correlation_sorted(std::span<const double> sorted) {
  const std::size_t n = sorted.size();
  if (n < 3) throw std::invalid_argument("qq_correlation: need n >= 3");
  const auto nd = static_cast<double>(n);
  double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = inverse_normal_cdf((static_cast<double>(i + 1) - 0.375) / (nd + 0.25));
    const double y = sorted[i];
    sx += t;
    sy += y;
    sxx += t * t;
    syy += y * y;
    sxy += t * y;
  }
  const double cov = sxy - sx * sy / nd;
  const double vx = sxx - sx * sx / nd;
  const double vy = syy - sy * sy / nd;
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

}  // namespace sci::stats
