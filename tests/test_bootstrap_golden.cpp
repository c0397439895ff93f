// Pins the bytes of the public bootstrap entry points: distributions,
// percentile bounds and BCa bounds, written as hex floats and compared
// with tests/golden/bootstrap_n*.golden. Every statistic runs through
// the Statistic overloads (one lane) and the ResampleStat overloads
// (one and eight lanes). n = 300000 is large enough that quantile
// replicates go through histogram selection over a 300000-bin count
// array.
//
// The sample values come from exact arithmetic on Xoshiro256 draws, so
// the inputs themselves do not depend on libm.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "golden_file.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/bootstrap.hpp"
#include "stats/bootstrap_engine.hpp"
#include "stats/descriptive.hpp"

namespace sci::stats {
namespace {

/// Right-skewed values in [1, 10); every third one is rounded down to a
/// multiple of `step` (a power of two, so the rounding is exact), so the
/// sample carries ties.
std::vector<double> golden_sample(std::size_t n, double step) {
  rng::Xoshiro256 gen(0x601de5 + n);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng::uniform01(gen);
    const double x = 1.0 + 9.0 * u * u * u;
    xs[i] = (i % 3 == 0) ? std::floor(x / step) * step : x;
  }
  return xs;
}

struct GoldenStat {
  const char* name;
  ResampleStat fast;
  Statistic generic;
  bool cheap_jackknife;  ///< O(n) leave-one-out values (quantile kinds)
};

std::vector<GoldenStat> golden_stats() {
  const auto q = [](double p, QuantileMethod method) {
    return Statistic([p, method](std::span<const double> xs) {
      return quantile(xs, p, method);
    });
  };
  const Statistic cov = [](std::span<const double> xs) {
    return coefficient_of_variation(xs);
  };
  return {
      {"mean", ResampleStat::mean(),
       [](std::span<const double> xs) { return arithmetic_mean(xs); }, false},
      {"median", ResampleStat::median(), q(0.5, QuantileMethod::kR7Linear), true},
      {"q90_r6", ResampleStat::quantile(0.9, QuantileMethod::kR6Weibull),
       q(0.9, QuantileMethod::kR6Weibull), true},
      {"q25_r1", ResampleStat::quantile(0.25, QuantileMethod::kR1InverseEcdf),
       q(0.25, QuantileMethod::kR1InverseEcdf), true},
      {"p0", ResampleStat::quantile(0.0), q(0.0, QuantileMethod::kR7Linear), true},
      {"p1", ResampleStat::quantile(1.0), q(1.0, QuantileMethod::kR7Linear), true},
      {"custom_cov", ResampleStat::custom(cov), cov, false},
  };
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, " %a", v);
  return buf;
}

void append_result(std::string& out, const char* label, const std::vector<double>& dist,
                   const Interval& pct, const Interval* bca) {
  out += label;
  out += "\n  dist";
  for (const double v : dist) out += hex(v);
  out += "\n  pct" + hex(pct.lower) + hex(pct.upper) + "\n";
  if (bca != nullptr) out += "  bca" + hex(bca->lower) + hex(bca->upper) + "\n";
}

/// Every statistic through every overload. BCa's jackknife is O(n^2) for
/// the mean and for callables, so at large n only the ResampleStat
/// quantile kinds (O(n) jackknife) report BCa bounds.
std::string golden_text(std::size_t n, double step, std::size_t replicates) {
  const auto xs = golden_sample(n, step);
  const std::uint64_t seed = 0x5eed0 + n;
  const double conf = 0.9;
  std::string out = "n=" + std::to_string(n) + " R=" + std::to_string(replicates) +
                    " confidence=0.9\n";
  for (const GoldenStat& s : golden_stats()) {
    const bool small = n < 1000;
    const bool bca_ok = s.cheap_jackknife || small;
    char label[96];

    std::snprintf(label, sizeof label, "%s Statistic lanes=1", s.name);
    Interval bca{};
    if (small) bca = bootstrap_bca_ci(xs, s.generic, replicates, conf, seed);
    append_result(out, label, bootstrap_distribution(xs, s.generic, replicates, seed),
                  bootstrap_percentile_ci(xs, s.generic, replicates, conf, seed),
                  small ? &bca : nullptr);

    std::snprintf(label, sizeof label, "%s ResampleStat lanes=1", s.name);
    if (bca_ok) bca = bootstrap_bca_ci(xs, s.fast, replicates, conf, seed);
    append_result(out, label, bootstrap_distribution(xs, s.fast, replicates, seed),
                  bootstrap_percentile_ci(xs, s.fast, replicates, conf, seed),
                  bca_ok ? &bca : nullptr);

    const std::size_t lanes8 = 8;
    std::snprintf(label, sizeof label, "%s ResampleStat lanes=8", s.name);
    if (bca_ok) bca = bootstrap_bca_ci(xs, s.fast, replicates, conf, seed, lanes8);
    append_result(out, label, bootstrap_distribution(xs, s.fast, replicates, seed, lanes8),
                  bootstrap_percentile_ci(xs, s.fast, replicates, conf, seed, lanes8),
                  bca_ok ? &bca : nullptr);
  }
  return out;
}

TEST(BootstrapGolden, TwoElementSample) {
  golden::expect_golden("bootstrap_n2.golden", golden_text(2, 0.5, 33));
}

TEST(BootstrapGolden, TiedSampleOfThirtySeven) {
  golden::expect_golden("bootstrap_n37.golden", golden_text(37, 0.5, 33));
}

TEST(BootstrapGolden, LargeSampleOfThreeHundredThousand) {
  // A fine tie grid: with 0.5 the median would sit inside one long tie
  // run and every replicate would print the same value.
  golden::expect_golden("bootstrap_n300000.golden", golden_text(300000, 0x1p-12, 9));
}

}  // namespace
}  // namespace sci::stats
