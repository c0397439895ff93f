#include "stats/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/descriptive.hpp"

namespace sci::stats {

namespace {

/// NaN poisons every bin boundary below (NaN < lo comparisons are all
/// false, so samples land in garbage bins) and +/-inf collapses the
/// span to a single unusable bin; both are measurement-pipeline bugs
/// upstream, so reject them loudly instead of plotting nonsense.
void require_finite(std::span<const double> xs, const char* who) {
  for (double x : xs) {
    if (!std::isfinite(x)) {
      throw std::domain_error(std::string(who) + ": non-finite sample in input");
    }
  }
}

}  // namespace

Histogram make_histogram(std::span<const double> xs, std::size_t bins) {
  if (xs.empty()) throw std::invalid_argument("make_histogram: empty input");
  require_finite(xs, "make_histogram");
  const auto sorted = sorted_copy(xs);
  const double lo = sorted.front();
  const double hi = sorted.back();
  const auto n = static_cast<double>(xs.size());

  if (bins == 0) {
    const double iqr = quantile_sorted(sorted, 0.75) - quantile_sorted(sorted, 0.25);
    if (iqr > 0.0 && hi > lo) {
      const double width = 2.0 * iqr / std::cbrt(n);  // Freedman-Diaconis
      bins = static_cast<std::size_t>(std::ceil((hi - lo) / width));
    } else {
      bins = static_cast<std::size_t>(std::ceil(std::log2(n))) + 1;  // Sturges
    }
    bins = std::clamp<std::size_t>(bins, 1, 512);
  }

  Histogram h;
  h.edges.resize(bins + 1);
  h.counts.assign(bins, 0);
  const double span_width = (hi > lo) ? (hi - lo) : 1.0;
  for (std::size_t i = 0; i <= bins; ++i) {
    h.edges[i] = lo + span_width * static_cast<double>(i) / static_cast<double>(bins);
  }
  for (double x : xs) {
    auto idx = static_cast<std::size_t>((x - lo) / span_width * static_cast<double>(bins));
    if (idx >= bins) idx = bins - 1;  // right edge inclusive
    ++h.counts[idx];
  }
  h.density.resize(bins);
  const double bin_width = span_width / static_cast<double>(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    h.density[i] = static_cast<double>(h.counts[i]) / (n * bin_width);
  }
  return h;
}

namespace {

/// Evaluates the KDE of `data` on `points` grid positions. `sorted`, the
/// ascending copy of `data`, is read only for Silverman's IQR.
DensityCurve evaluate_density(std::span<const double> data, std::span<const double> sorted,
                              std::size_t points, double bandwidth) {
  const auto n = static_cast<double>(data.size());
  if (bandwidth <= 0.0) {
    const double s = sample_stddev(data);
    const double iqr = quantile_sorted(sorted, 0.75) - quantile_sorted(sorted, 0.25);
    double sigma = (iqr > 0.0) ? std::min(s, iqr / 1.349) : s;
    if (sigma <= 0.0) sigma = 1.0;
    bandwidth = 0.9 * sigma * std::pow(n, -0.2);  // Silverman
  }

  const auto [min_it, max_it] = std::minmax_element(data.begin(), data.end());
  const double lo = *min_it - 3.0 * bandwidth;
  const double hi = *max_it + 3.0 * bandwidth;

  DensityCurve curve;
  curve.bandwidth = bandwidth;
  curve.x.resize(points);
  curve.density.assign(points, 0.0);  // per-point sums until the final scaling
  for (std::size_t p = 0; p < points; ++p) {
    curve.x[p] = lo + (hi - lo) * static_cast<double>(p) / static_cast<double>(points - 1);
  }
  const double inv_h = 1.0 / bandwidth;
  // Terms with u^2 >= 40 (weight below e^-20 ~ 2.1e-9 of the peak) are
  // dropped: they are negligible on a plot, not underflowed.
  const auto u_at = [&](std::size_t p, double v) { return (curve.x[p] - v) * inv_h; };
  const auto kept = [](double u) { return u * u < 40.0; };
  // Point p lies past the cutoff on the `side` (-1 below, +1 above) of
  // v; u only grows with p, so every point beyond it does too.
  const auto cut = [&](std::size_t p, double v, double side) {
    const double u = u_at(p, v);
    return u * side >= 0.0 && !kept(u);
  };
  // Sample-major: each sample visits only the grid points in a window
  // around it (sqrt(40) bandwidths, one grid step of margin), widened
  // until the points just outside it are cut off -- exact under any
  // rounding of the grid. Each point still sums the same terms in
  // sample order, so the curve is bit-equal to the point-major loop.
  const double last = static_cast<double>(points - 1);
  const double per_x = last / (hi - lo);
  const double reach = 6.3246 * bandwidth * per_x + 1.0;
  const auto index = [&](double at) -> std::size_t {
    if (!(at > 0.0)) return 0;  // also NaN
    return at < last ? static_cast<std::size_t>(at) : points - 1;
  };
  for (const double v : data) {
    const double at = (v - lo) * per_x;
    std::size_t first = index(std::floor(at - reach));
    std::size_t stop = std::max(first, index(std::ceil(at + reach)));
    while (first > 0 && !cut(first - 1, v, -1.0)) --first;
    while (stop + 1 < points && !cut(stop + 1, v, 1.0)) ++stop;
    for (std::size_t p = first; p <= stop; ++p) {
      const double u = u_at(p, v);
      if (kept(u)) curve.density[p] += std::exp(-0.5 * u * u);
    }
  }
  const double norm = 1.0 / (n * bandwidth * std::sqrt(2.0 * M_PI));
  for (double& d : curve.density) d *= norm;
  return curve;
}

/// Longer series are thinned to evenly strided samples first: KDE is a
/// plot aid, and its cost grows with the sample count.
constexpr std::size_t kMaxSamples = 100'000;

std::vector<double> thin(std::span<const double> xs) {
  // Ceil-divide: floor (xs.size() / kMaxSamples) gives stride 1 for
  // any n in (kMaxSamples, 2*kMaxSamples), i.e. no thinning at all
  // and a reserve() the loop then blows past.
  const std::size_t stride = (xs.size() + kMaxSamples - 1) / kMaxSamples;
  std::vector<double> thinned;
  thinned.reserve(kMaxSamples);
  for (std::size_t i = 0; i < xs.size(); i += stride) thinned.push_back(xs[i]);
  assert(thinned.size() <= kMaxSamples);
  return thinned;
}

void check_density_args(std::span<const double> xs, std::size_t points) {
  if (xs.empty()) throw std::invalid_argument("kernel_density: empty input");
  if (points < 2) throw std::invalid_argument("kernel_density: points >= 2");
  require_finite(xs, "kernel_density");
}

}  // namespace

DensityCurve kernel_density(std::span<const double> xs, std::size_t points,
                            double bandwidth) {
  check_density_args(xs, points);
  std::vector<double> thinned;
  std::span<const double> data = xs;
  if (xs.size() > kMaxSamples) {
    thinned = thin(xs);
    data = thinned;
  }
  const auto sorted = bandwidth <= 0.0 ? sorted_copy(data) : std::vector<double>{};
  return evaluate_density(data, sorted, points, bandwidth);
}

DensityCurve kernel_density_sorted(std::span<const double> xs, std::span<const double> sorted,
                                   std::size_t points, double bandwidth) {
  check_density_args(xs, points);
  // A thinned series needs the sorted copy of the samples it keeps.
  if (xs.size() > kMaxSamples) return kernel_density(xs, points, bandwidth);
  return evaluate_density(xs, sorted, points, bandwidth);
}

}  // namespace sci::stats
