// Duel: the trend detector's quantile-regression refits, solved by the
// dense two-phase simplex on the full Koenker-Bassett LP (`lp::Problem`,
// the solver stats::quantile_regression used before) versus the
// Barrodale-Roberts vertex descent now inside stats::quantile_regression.
//
// The workload is exactly what ci::analyze_series runs per metric: a
// tau = 0.5 fit of (point index, median) and a 200-replicate xy-pair
// bootstrap of it, seed 0x5c1b3, for histories of n points. One timed
// pass is one such bootstrap. Both sides draw the same resamples; the
// passes alternate so host drift hits both equally. Every figure is a
// median with a 95% nonparametric rank CI.
//
// Correctness is asserted in every mode, timing never in --smoke:
//   * every refit the library runs at each n -- distinct rows weighted
//     by draw count, warm-started from the full-sample basis -- reaches
//     the oracle's optimal loss on its expanded resample (1e-12
//     relative);
//   * both sides agree on the detector's question -- is the slope's
//     bootstrap CI clear of zero?
//
// `--smoke` runs the small histories with few repetitions for CI;
// `--json DIR` writes DIR/BENCH_qr_trend.json for scibench_ci.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "lp/simplex.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/descriptive.hpp"
#include "stats/quantile_regression.hpp"

using namespace sci;

namespace {

constexpr std::size_t kRefits = 200;         ///< ci::analyze_series' replicate count
constexpr std::uint64_t kSeed = 0x5c1b3;     ///< ... and its seed
constexpr double kTau = 0.5;

/// A recorded metric history: medians quantised to 1e-3 like real ones
/// (ties and collinear triples included), mild drift plus noise.
std::vector<double> history(std::size_t n) {
  rng::Xoshiro256 gen(0x9e57 + n);
  std::vector<double> medians;
  for (std::size_t i = 0; i < n; ++i) {
    const double level = 1.0 + 0.0005 * static_cast<double>(i);
    medians.push_back(std::round(1000.0 * level * (1.0 + 0.01 * rng::normal(gen, 0.0, 1.0))) /
                      1000.0);
  }
  return medians;
}

struct OracleFit {
  bool optimal = false;
  double objective = 0.0;
  double slope = 0.0;
};

/// min tau * sum u+ + (1 - tau) * sum u-  s.t.  b0 + b1 x_i + u+_i - u-_i = y_i,
/// over [b+ (2), b- (2), u+ (n), u- (n)] >= 0 -- the LP the library
/// built for every fit before.
OracleFit simplex_fit(const std::vector<double>& y, const std::vector<double>& x) {
  const std::size_t n = y.size();
  lp::Problem prob(n, 4 + 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    prob.set_coefficient(i, 0, 1.0);
    prob.set_coefficient(i, 1, x[i]);
    prob.set_coefficient(i, 2, -1.0);
    prob.set_coefficient(i, 3, -x[i]);
    prob.set_coefficient(i, 4 + i, 1.0);
    prob.set_coefficient(i, 4 + n + i, -1.0);
    prob.set_rhs(i, y[i]);
    prob.set_objective(4 + i, kTau);
    prob.set_objective(4 + n + i, 1.0 - kTau);
  }
  const lp::Solution sol = prob.solve();
  OracleFit fit;
  fit.optimal = sol.status == lp::Status::kOptimal;
  if (fit.optimal) {
    fit.objective = sol.objective;
    fit.slope = sol.x[1] - sol.x[3];
  }
  return fit;
}

/// The resamples quantile_regression_bootstrap_ci draws at one lane:
/// refit r takes indices [r * n, (r + 1) * n).
std::vector<std::size_t> resample_indices(std::size_t n) {
  rng::Xoshiro256 gen(kSeed);
  std::vector<std::size_t> idx(kRefits * n);
  for (auto& i : idx) i = static_cast<std::size_t>(rng::uniform_below(gen, n));
  return idx;
}

/// Is the percentile CI of `slopes` clear of zero (the detector's test)?
bool slope_significant(std::vector<double> slopes) {
  const auto sorted = stats::sorted_copy(slopes);
  return stats::quantile_sorted(sorted, 0.025) > 0.0 ||
         stats::quantile_sorted(sorted, 0.975) < 0.0;
}

/// One oracle pass: the 200 refits through the simplex, then the CI.
bool simplex_pass(const std::vector<double>& medians, const std::vector<std::size_t>& idx,
                  std::vector<double>* objectives) {
  const std::size_t n = medians.size();
  std::vector<double> y(n);
  std::vector<double> x(n);
  std::vector<double> slopes;
  for (std::size_t r = 0; r < kRefits; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = idx[r * n + i];
      y[i] = medians[k];
      x[i] = static_cast<double>(k);
    }
    const OracleFit fit = simplex_fit(y, x);
    if (objectives != nullptr) objectives->push_back(fit.optimal ? fit.objective : NAN);
    if (fit.optimal) slopes.push_back(fit.slope);
  }
  return slope_significant(slopes);
}

/// One pass of the library entry point the detector calls.
bool library_pass(const std::vector<double>& medians,
                  const std::vector<std::vector<double>>& design) {
  const auto ci = stats::quantile_regression_bootstrap_ci(medians, design, kTau, kRefits, 0.95,
                                                          kSeed);
  return ci.lower[1] > 0.0 || ci.upper[1] < 0.0;
}

struct Row {
  std::size_t n = 0;
  obs::BenchMetric simplex;
  obs::BenchMetric descent;
};

Row duel(std::size_t n, std::size_t reps) {
  const std::vector<double> medians = history(n);
  std::vector<std::vector<double>> design;
  for (std::size_t i = 0; i < n; ++i) design.push_back({static_cast<double>(i)});
  const std::vector<std::size_t> idx = resample_indices(n);

  // Correctness first (untimed): every refit the library ran -- its
  // count-weighted, warm-started solve -- scored by the loss of its
  // coefficients on the expanded resample against the oracle's optimum.
  std::vector<double> oracle_objectives;
  const bool oracle_flag = simplex_pass(medians, idx, &oracle_objectives);
  const auto refits =
      stats::detail::quantile_regression_replicates(medians, design, kTau, kRefits, kSeed);
  std::size_t mismatches = 0;
  std::size_t steps = 0;
  for (std::size_t r = 0; r < kRefits; ++r) {
    steps += refits.steps[r];
    const double b0 = refits.coefficients[2 * r];
    const double b1 = refits.coefficients[2 * r + 1];
    double loss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = idx[r * n + i];
      const double u = medians[k] - b0 - b1 * static_cast<double>(k);
      loss += u * (u < 0.0 ? kTau - 1.0 : kTau);
    }
    const double want = oracle_objectives[r];
    if (!refits.converged[r] || !(std::fabs(loss - want) <= 1e-12 * std::fabs(want) + 1e-15)) {
      ++mismatches;
    }
  }
  bench::check(mismatches == 0, "n=" + std::to_string(n) + ": " + std::to_string(mismatches) +
                                    " refit(s) miss the simplex's optimal loss");
  bench::check(library_pass(medians, design) == oracle_flag,
               "n=" + std::to_string(n) + ": slope-significance differs from the simplex");

  std::vector<double> simplex_ms;
  std::vector<double> descent_ms;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Alternate which side goes first so neither always runs warm.
    for (int side = 0; side < 2; ++side) {
      const bool simplex_turn = (side == 0) == (rep % 2 == 0);
      const double t0 = bench::now_s();
      if (simplex_turn) {
        (void)simplex_pass(medians, idx, nullptr);
      } else {
        (void)library_pass(medians, design);
      }
      (simplex_turn ? simplex_ms : descent_ms).push_back((bench::now_s() - t0) * 1e3);
    }
  }
  // Appended, not "n" + ...: gcc 12 at -O3 reports a false -Wrestrict
  // on that concatenation here.
  std::string base = "n";
  base += std::to_string(n);
  Row row;
  row.n = n;
  row.simplex = bench::summarize(base + ".simplex", "ms", simplex_ms);
  row.descent = bench::summarize(base + ".barrodale_roberts", "ms", descent_ms);
  std::printf("  n=%-4zu  simplex %10.3f [%10.3f, %10.3f] ms   descent %8.3f [%8.3f, %8.3f] ms"
              "   %6.1fx  %.2f steps/refit  (%zu reps)\n",
              n, row.simplex.median, row.simplex.ci_lo, row.simplex.ci_hi, row.descent.median,
              row.descent.ci_lo, row.descent.ci_hi, row.simplex.median / row.descent.median,
              static_cast<double>(steps) / kRefits, reps);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("qr_trend", argc, argv);
  bench::reporter().set_context("mode", bench::mode());
  const bool smoke = bench::smoke();
  std::printf("bench_qr_trend (%s): %zu-refit tau=0.5 bootstrap per pass, "
              "dense simplex vs Barrodale-Roberts\n",
              bench::mode(), kRefits);

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16, 33, 41}
            : std::vector<std::size_t>{16, 33, 41, 64, 128, 200};
  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    // The simplex pass costs ~5 s at n = 200 on a 4-core Xeon; seven
    // pairs still give a rank CI.
    const std::size_t reps = smoke ? 3 : (n >= 128 ? 7 : 15);
    rows.push_back(duel(n, reps));
  }

  if (!smoke) {
    for (const Row& row : rows) {
      bench::check(row.descent.ci_hi < row.simplex.ci_lo,
                   "n=" + std::to_string(row.n) + ": descent faster, 95% CIs disjoint");
    }
  }

  return bench::finish();
}
