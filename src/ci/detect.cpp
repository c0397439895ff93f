#include "ci/detect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>

#include "stats/compare.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"
#include "stats/parallel.hpp"
#include "stats/quantile_regression.hpp"

namespace sci::ci {

namespace {

/// Is `change` (signed relative) in the bad direction for this metric?
bool is_worse(double change, obs::Improve improve) noexcept {
  return improve == obs::Improve::kLower ? change > 0.0 : change < 0.0;
}

double relative_change(double value, double base) noexcept {
  const double denom = std::fabs(base);
  if (denom == 0.0) return value == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return (value - base) / denom;
}

}  // namespace

const char* to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kInsufficientHistory: return "insufficient-history";
    case Verdict::kStable: return "stable";
    case Verdict::kImprovement: return "improvement";
    case Verdict::kRegression: return "REGRESSION";
  }
  return "?";
}

Finding analyze_series(const MetricSeries& series, const DetectionOptions& options) {
  Finding finding;
  finding.bench = series.bench;
  finding.metric = series.metric;
  finding.unit = series.unit;
  finding.improve = series.improve;
  finding.points = series.points.size();

  const std::vector<double> medians = series.medians();
  const std::size_t n = medians.size();
  if (n > 0) finding.latest_median = medians.back();
  if (n < std::max<std::size_t>(options.min_points, 2)) {
    finding.note = "only " + std::to_string(n) + " point(s) recorded; need " +
                   std::to_string(options.min_points);
    return finding;
  }

  // ---- CI-overlap gate: latest point vs the baseline window. -------
  const std::size_t window = std::min<std::size_t>(options.baseline_window, n - 1);
  const std::span<const double> baseline(medians.data() + (n - 1 - window), window);
  // One sort feeds the baseline median, the rank CI, and the extremes
  // (PR 3 convention: sort once, then quantile_sorted).
  const auto sorted_baseline = stats::sorted_copy(baseline);
  finding.baseline_median = stats::quantile_sorted(sorted_baseline, 0.5);
  finding.change_fraction = relative_change(finding.latest_median, finding.baseline_median);

  const stats::Interval baseline_ci = stats::median_interval_sorted(sorted_baseline);
  // Detect the blind spot, not just its tiny-n cause: rank CIs over few
  // points clamp to the extremes even when n > 5 lets the formula run.
  // A constant window (min == max) is a zero-width interval, not a wide
  // one, so it does not qualify.
  const double baseline_min = sorted_baseline.front();
  const double baseline_max = sorted_baseline.back();
  finding.baseline_ci_degenerate = baseline_min < baseline_max &&
                                   baseline_ci.lower <= baseline_min &&
                                   baseline_ci.upper >= baseline_max;
  const HistoryPoint& latest = series.points.back();
  // A tiny-n latest point carries a min/max or degenerate CI; never let
  // a NaN bound read as "disjoint".
  stats::Interval latest_ci{latest.metric.ci_lo, latest.metric.ci_hi, 0.95};
  if (!std::isfinite(latest_ci.lower) || !std::isfinite(latest_ci.upper)) {
    latest_ci = {latest.metric.median, latest.metric.median, 0.95};
  }
  finding.ci_disjoint = !latest_ci.overlaps(baseline_ci);

  const bool meaningful = std::fabs(finding.change_fraction) >= options.min_effect;
  finding.verdict = Verdict::kStable;
  if (finding.ci_disjoint && meaningful) {
    finding.verdict = is_worse(finding.change_fraction, finding.improve)
                          ? Verdict::kRegression
                          : Verdict::kImprovement;
  }

  // ---- Change-point scan (Kruskal-Wallis over every split). --------
  if (n >= 4) {
    // Splits are independent KW tests, so shard them across the
    // policy's workers into preassigned slots; the argmin below stays
    // serial with strict '<' (first split wins ties), making the scan
    // byte-identical to the sequential loop at any thread count.
    const std::size_t candidates = n - 3;  // k = 2 .. n-2
    std::vector<double> split_p(candidates);
    stats::policy_partition(
        options.policy, candidates, [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t c = lo; c < hi; ++c) {
            const std::size_t k = c + 2;
            const std::vector<std::vector<double>> groups = {
                {medians.begin(), medians.begin() + static_cast<std::ptrdiff_t>(k)},
                {medians.begin() + static_cast<std::ptrdiff_t>(k), medians.end()}};
            split_p[c] = stats::kruskal_wallis(groups).p_value;
          }
        });
    double best_p = 1.0;
    std::size_t best_split = 0;
    for (std::size_t c = 0; c < candidates; ++c) {
      if (split_p[c] < best_p) {
        best_p = split_p[c];
        best_split = c + 2;
      }
    }
    // best_split == 0 means no split beat p = 1.0 (a perfectly constant
    // series): there is no candidate step, and the empty prefix below
    // would otherwise throw.
    if (best_split > 0) {
      // Bonferroni across the scanned splits: the scan asks `candidates`
      // questions, so a single raw p of alpha would fire spuriously on
      // flat noise roughly once per alpha*candidates series.
      finding.changepoint_p = std::min(1.0, best_p * static_cast<double>(candidates));
      const std::span<const double> pre(medians.data(), best_split);
      const std::span<const double> post(medians.data() + best_split, n - best_split);
      finding.changepoint_shift =
          relative_change(stats::median(post), stats::median(pre));
      finding.changepoint = finding.changepoint_p < options.alpha &&
                            std::fabs(finding.changepoint_shift) >= options.min_effect;
      finding.changepoint_index = finding.changepoint ? best_split : 0;
      // A step whose new regime is worse and still current is a
      // regression even when the windowed baseline has already been
      // contaminated by post-step points.
      if (finding.changepoint && is_worse(finding.changepoint_shift, finding.improve) &&
          finding.verdict != Verdict::kRegression) {
        finding.verdict = Verdict::kRegression;
      }
    }
  }

  // ---- Tail step: exact rank separation over the last k points. ----
  // Closes the late-step blind spot (ROADMAP item 5): a step at n-2
  // leaves the KW scan a 2-point suffix whose best possible p dies
  // under Bonferroni, while the CI gate's baseline window has already
  // absorbed the stepped points (a degenerate [min, max] baseline CI
  // contains them outright). Under H0 -- the m baseline and k tail
  // medians exchangeable -- the chance that every tail point lies
  // strictly beyond every baseline point in the worse direction is
  // exactly 1 / C(m+k, k). Strict inequality keeps ties conservative.
  {
    const bool lower_is_better = finding.improve == obs::Improve::kLower;
    // k = 2 needs n >= 6 (m >= 4) to be testable, k = 3 needs n >= 7;
    // the correction spans the tests actually run.
    std::size_t tests = 0;
    for (std::size_t k = 2; k <= 3; ++k) tests += (n >= k + 4) ? 1 : 0;
    for (std::size_t k = 2; k <= 3 && n >= k + 4; ++k) {
      const std::size_t m = std::min<std::size_t>(options.baseline_window, n - k);
      const std::span<const double> tail(medians.data() + (n - k), k);
      const std::span<const double> base(medians.data() + (n - k - m), m);
      const auto tail_minmax = std::minmax_element(tail.begin(), tail.end());
      const auto base_minmax = std::minmax_element(base.begin(), base.end());
      const bool separated = lower_is_better
                                 ? *tail_minmax.first > *base_minmax.second
                                 : *tail_minmax.second < *base_minmax.first;
      if (!separated) continue;
      // C(m+k, k) = prod_{i=1..k} (m+i)/i; k <= 3 keeps this exact.
      double comb = 1.0;
      for (std::size_t i = 1; i <= k; ++i) {
        comb *= static_cast<double>(m + i) / static_cast<double>(i);
      }
      const double p = std::min(1.0, static_cast<double>(tests) / comb);
      if (p >= finding.tail_p) continue;
      finding.tail_p = p;
      finding.tail_k = k;
      finding.tail_shift =
          relative_change(stats::median(tail), stats::median(base));
    }
    finding.tail_step = finding.tail_k > 0 && finding.tail_p < options.alpha &&
                        std::fabs(finding.tail_shift) >= options.min_effect;
    if (!finding.tail_step) finding.tail_k = 0;
    // Separation is in the worse direction by construction, so a firing
    // tail test is always a regression.
    if (finding.tail_step) finding.verdict = Verdict::kRegression;
  }

  // ---- Trend (dashboard-only): tau=0.5 regression on (seq, median). -
  if (n >= 6) {
    std::vector<double> y(medians.begin(), medians.end());
    std::vector<std::vector<double>> design;
    design.reserve(n);
    for (std::size_t i = 0; i < n; ++i) design.push_back({static_cast<double>(i)});
    // One call: the point fit, and -- only when it converged -- the
    // bootstrap refits that warm-start from it.
    const auto [fit, ci] = stats::quantile_regression_with_ci(
        y, design, 0.5, 200, 0.95, 0x5c1b3,
        stats::ExecPolicy{1, options.policy.effective_lanes()});
    if (fit.converged && fit.coefficients.size() >= 2) {
      finding.trend_slope = fit.coefficients[1];
      const bool slope_significant =
          ci.lower.size() >= 2 && ci.upper.size() >= 2 &&
          (ci.lower[1] > 0.0 || ci.upper[1] < 0.0);
      const double drift = relative_change(
          finding.trend_slope * static_cast<double>(n - 1) + medians.front(),
          medians.front());
      finding.trend = slope_significant && std::fabs(drift) >= options.min_effect;
    }
  }

  // ---- One-sentence summary. ---------------------------------------
  char tail_note[64] = "";
  if (finding.tail_step) {
    std::snprintf(tail_note, sizeof tail_note,
                  ", step in last %zu point%s (p=%.3g)", finding.tail_k,
                  finding.tail_k == 1 ? "" : "s", finding.tail_p);
  }
  char note[256];
  std::snprintf(note, sizeof note, "latest %.6g vs baseline %.6g %s (%+.1f%%)%s%s%s%s",
                finding.latest_median, finding.baseline_median, finding.unit.c_str(),
                finding.change_fraction * 100.0,
                finding.changepoint ? ", step change in regime" : "", tail_note,
                finding.trend ? ", sustained trend" : "",
                finding.baseline_ci_degenerate ? ", baseline CI degenerate [min, max]"
                                               : "");
  finding.note = note;
  return finding;
}

std::vector<Finding> analyze_all(const std::vector<MetricSeries>& series,
                                 const DetectionOptions& options) {
  // Series are independent; shard them across the policy's workers.
  // Output slots are preassigned, so findings order -- and every byte in
  // them -- is the same at any thread count.
  //
  // Nested fan-out guard: once series are sharded, each per-series
  // change-point scan must run serially -- re-entering the pooled team
  // from inside one of its own workers throws std::logic_error (waiting
  // for the region it is part of would never end). With a single
  // series (or one thread) the outer partition runs inline, and the
  // scan keeps the split-level parallelism instead.
  std::vector<Finding> findings(series.size());
  const std::size_t outer =
      std::min<std::size_t>(options.policy.effective_threads(), series.size());
  DetectionOptions inner = options;
  if (outer > 1) inner.policy.threads = 1;
  stats::policy_partition(options.policy, series.size(),
                          [&](std::size_t, std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i)
                              findings[i] = analyze_series(series[i], inner);
                          });
  return findings;
}

bool any_regression(const std::vector<Finding>& findings) noexcept {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.verdict == Verdict::kRegression;
  });
}

}  // namespace sci::ci
