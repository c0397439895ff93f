#include "core/adaptive.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"
#include "stats/online.hpp"

namespace sci::core {
namespace {

bool mean_ci_converged(std::span<const double> xs, double relative_error,
                       double confidence) {
  if (xs.size() < 2) return false;
  const auto ci = stats::mean_confidence_interval(xs, confidence);
  const double mean = stats::arithmetic_mean(xs);
  if (mean == 0.0) return ci.width() == 0.0;
  return ci.lower >= mean - std::fabs(mean) * relative_error &&
         ci.upper <= mean + std::fabs(mean) * relative_error;
}

}  // namespace

AdaptiveResult measure_adaptive(const std::function<double()>& measure,
                                const AdaptiveOptions& options) {
  if (!measure) throw std::invalid_argument("measure_adaptive: null measurement function");
  if (options.relative_error <= 0.0)
    throw std::domain_error("measure_adaptive: relative_error > 0");
  if (options.max_samples < options.min_samples)
    throw std::invalid_argument("measure_adaptive: max_samples >= min_samples");

  static obs::Counter& samples_ctr = obs::counter(obs::keys::kHarnessSamples);
  static obs::Counter& overhead_ctr = obs::counter(obs::keys::kHarnessOverheadNs);
  static obs::Counter& ci_ctr = obs::counter(obs::keys::kCiRecomputes);

  SCI_TRACE_HOST_SPAN(adaptive_span, "measure_adaptive", "harness");

  AdaptiveResult result;
  result.warmup_discarded = options.warmup;
  for (std::size_t i = 0; i < options.warmup; ++i) (void)measure();

  result.samples.reserve(options.min_samples);
  const std::size_t cadence = std::max<std::size_t>(options.check_every, 1);
  // Incremental accumulator for the nonparametric stop: each CI check
  // merges only the samples added since the last check instead of
  // re-sorting the whole series. The sorted data it evaluates is
  // identical to what quantile_ci_converged would build, so the stop
  // decision (and therefore every published number) is unchanged.
  stats::OnlineSeries acc;
  while (result.samples.size() < options.max_samples) {
    // The clock is read only for a sample span someone will record.
    const bool traced = SCI_TRACE_ATTACHED();
    const double sample_t0 = traced ? obs::host_now_s() : 0.0;
    const double value = measure();
    result.samples.push_back(value);
    if (!options.use_mean) acc.add(value);
    samples_ctr.add(1);
    const std::size_t n = result.samples.size();
    if (traced) {
      SCI_TRACE_COMPLETE(obs::kHarnessTrack, "sample", "harness", sample_t0,
                         obs::host_now_s() - sample_t0, {{"n", n}});
    }
    if (n < options.min_samples || n % cadence != 0) continue;

    // Everything from here to loop bottom is harness time the
    // measurement itself never sees -- tally it so reports can show the
    // collection mechanism stayed cheap (Section 6 / Rule 9).
    const double check_t0 = obs::host_now_s();
    const bool ok =
        options.use_mean
            ? mean_ci_converged(result.samples, options.relative_error, options.confidence)
            : acc.quantile_converged(options.quantile, options.relative_error,
                                     options.confidence);
    const double check_t1 = obs::host_now_s();
    ci_ctr.add(1);
    overhead_ctr.add(static_cast<std::uint64_t>((check_t1 - check_t0) * 1e9));
    SCI_TRACE_INSTANT(obs::kHarnessTrack, "ci_check", "harness", check_t1,
                      {{"n", n}, {"converged", ok ? 1 : 0}});
    if (ok) {
      result.converged = true;
      result.stop_reason = "converged";
      return result;
    }
  }
  result.stop_reason = "max_samples";
  return result;
}

}  // namespace sci::core
