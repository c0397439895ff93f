#include "core/measurement.hpp"

#include "stats/independence.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace sci::core {

MeasurementSummary summarize_series(std::span<const double> xs,
                                    const SummaryOptions& options) {
  if (xs.empty()) throw std::invalid_argument("summarize_series: empty series");
  SCI_TRACE_HOST_SPAN(span, "summarize_series", "harness");

  MeasurementSummary s;
  s.n = xs.size();
  const auto sorted = stats::sorted_copy(xs);
  s.min = sorted.front();
  s.max = sorted.back();
  s.mean = stats::arithmetic_mean(xs);
  s.median = stats::quantile_sorted(sorted, 0.5);
  s.q1 = stats::quantile_sorted(sorted, 0.25);
  s.q3 = stats::quantile_sorted(sorted, 0.75);
  s.p95 = stats::quantile_sorted(sorted, 0.95);
  s.p99 = stats::quantile_sorted(sorted, 0.99);
  s.stddev = stats::sample_stddev(xs);
  s.cov = (s.mean != 0.0) ? s.stddev / s.mean : 0.0;

  // Rule 5: report whether the measurement is deterministic.
  const double tol = options.deterministic_rtol * std::fabs(s.median);
  s.deterministic = (s.max - s.min) <= tol;
  if (s.deterministic) {
    s.representative = s.median;
    s.representative_kind = "deterministic value";
    return s;
  }

  // Rule 6: diagnostic normality check, never assumed. Shapiro-Wilk is
  // capped at n = 5000; thin evenly beyond that (the paper notes the
  // test itself misleads at large n).
  if (s.n >= 3) {
    std::vector<double> thinned;
    std::span<const double> test_data = xs;
    if (s.n > 5000) {
      thinned.reserve(5000);
      const std::size_t stride = s.n / 5000 + 1;
      for (std::size_t i = 0; i < s.n; i += stride) thinned.push_back(xs[i]);
      test_data = thinned;
    }
    // A constant subsample can slip through the deterministic check.
    if (test_data.front() != test_data.back() ||
        *std::max_element(test_data.begin(), test_data.end()) !=
            *std::min_element(test_data.begin(), test_data.end())) {
      // The full series is already sorted for the quantiles above.
      s.normality = thinned.empty() ? stats::shapiro_wilk_sorted(sorted)
                                    : stats::shapiro_wilk(thinned);
      s.normal_plausible = !s.normality->reject(options.normality_alpha);
    }
  }

  // Independence diagnostic on the leading samples in measurement order
  // (order matters for autocorrelation; do not sort or thin by stride).
  if (s.n >= 30) {
    const std::size_t m = std::min<std::size_t>(s.n, 5000);
    s.iid_check = stats::ljung_box(xs.first(m), 10);
    s.effective_n = stats::effective_sample_size(xs.first(m));
    // Scale up proportionally when we only inspected a prefix.
    s.effective_n *= static_cast<double>(s.n) / static_cast<double>(m);
    s.iid_plausible = !s.iid_check->reject(options.normality_alpha);
  } else {
    s.effective_n = static_cast<double>(s.n);
  }

  if (s.normal_plausible && s.n >= 2) {
    s.mean_ci = stats::mean_confidence_interval(xs, options.confidence);
  }
  if (s.n > 5) {
    // `sorted` already exists from the quantile block above; the
    // unsorted entry point would re-sort the whole series.
    s.median_ci =
        stats::quantile_confidence_interval_sorted(sorted, 0.5, options.confidence);
  }

  // Right-skewed nondeterministic data: lead with the median (robust);
  // plausibly normal data: the mean is meaningful and more familiar.
  if (s.normal_plausible) {
    s.representative = s.mean;
    s.representative_kind = "mean";
  } else {
    s.representative = s.median;
    s.representative_kind = "median";
  }
  return s;
}

}  // namespace sci::core
