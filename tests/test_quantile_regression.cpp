#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "lp/simplex.hpp"
#include "rng/distributions.hpp"
#include "rng/lanes.hpp"
#include "rng/xoshiro.hpp"
#include "stats/descriptive.hpp"
#include "stats/quantile_regression.hpp"

namespace sci::stats {
namespace {

TEST(QuantReg, InterceptOnlyEqualsSampleQuantile) {
  // With no regressors, the tau-quantile-regression intercept is a
  // tau-quantile of y (any minimizer of the check loss).
  rng::Xoshiro256 gen(1);
  std::vector<double> y;
  for (int i = 0; i < 101; ++i) y.push_back(rng::lognormal(gen, 0.0, 1.0));
  for (double tau : {0.25, 0.5, 0.9}) {
    const auto fit = quantile_regression(y, {}, tau);
    ASSERT_TRUE(fit.converged);
    // The LP optimum must lie between neighboring order statistics of
    // the R1 quantile; with n=101 and these taus it's an exact order stat.
    EXPECT_NEAR(fit.coefficients[0], quantile(y, tau, QuantileMethod::kR1InverseEcdf),
                1e-9)
        << tau;
  }
}

TEST(QuantReg, BinaryFactorEqualsGroupQuantileDifference) {
  // The Figure 4 design: y ~ intercept + indicator(system). The fitted
  // coefficients are the group quantile and the between-group difference.
  rng::Xoshiro256 gen(2);
  std::vector<double> y;
  std::vector<std::vector<double>> x;
  std::vector<double> g0, g1;
  for (int i = 0; i < 75; ++i) {
    const double a = rng::lognormal(gen, 0.0, 0.4);
    const double b = rng::lognormal(gen, 0.3, 0.6);
    y.push_back(a);
    x.push_back({0.0});
    g0.push_back(a);
    y.push_back(b);
    x.push_back({1.0});
    g1.push_back(b);
  }
  const double tau = 0.5;
  const auto fit = quantile_regression(y, x, tau);
  ASSERT_TRUE(fit.converged);
  const double q0 = quantile(g0, tau, QuantileMethod::kR1InverseEcdf);
  const double q1 = quantile(g1, tau, QuantileMethod::kR1InverseEcdf);
  EXPECT_NEAR(fit.coefficients[0], q0, 0.05);
  EXPECT_NEAR(fit.coefficients[0] + fit.coefficients[1], q1, 0.05);
}

TEST(QuantReg, RecoversLinearTrend) {
  // y = 2 + 3x + symmetric noise: median regression recovers the line.
  rng::Xoshiro256 gen(3);
  std::vector<double> y;
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 200; ++i) {
    const double xi = rng::uniform(gen, 0.0, 10.0);
    x.push_back({xi});
    y.push_back(2.0 + 3.0 * xi + rng::normal(gen, 0.0, 0.5));
  }
  const auto fit = quantile_regression(y, x, 0.5);
  ASSERT_TRUE(fit.converged);
  EXPECT_NEAR(fit.coefficients[0], 2.0, 0.3);
  EXPECT_NEAR(fit.coefficients[1], 3.0, 0.06);
}

TEST(QuantReg, SweepIsMonotoneInTau) {
  rng::Xoshiro256 gen(4);
  std::vector<double> y;
  for (int i = 0; i < 150; ++i) y.push_back(rng::exponential(gen, 1.0));
  const std::vector<double> taus = {0.1, 0.3, 0.5, 0.7, 0.9};
  const auto sweep = quantile_regression_sweep(y, {}, taus);
  ASSERT_EQ(sweep.size(), taus.size());
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    ASSERT_TRUE(sweep[i].converged);
    EXPECT_GE(sweep[i].coefficients[0], sweep[i - 1].coefficients[0]);
  }
}

TEST(QuantReg, ObjectiveIsCheckLoss) {
  const std::vector<double> y = {1.0, 2.0, 10.0};
  const auto fit = quantile_regression(y, {}, 0.5);
  ASSERT_TRUE(fit.converged);
  // Median = 2; loss = 0.5*(|1-2| + |10-2|) = 4.5.
  EXPECT_NEAR(fit.coefficients[0], 2.0, 1e-9);
  EXPECT_NEAR(fit.objective, 4.5, 1e-9);
}

TEST(QuantReg, InputValidation) {
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(quantile_regression({}, {}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile_regression(y, {}, 0.0), std::domain_error);
  EXPECT_THROW(quantile_regression(y, {}, 1.0), std::domain_error);
  const std::vector<std::vector<double>> ragged = {{1.0}, {1.0, 2.0}};
  EXPECT_THROW(quantile_regression(y, ragged, 0.5), std::invalid_argument);
}

TEST(QuantReg, NonFiniteInputIsNotAFit) {
  // A history median recorded as null parses as NaN; the loss has no
  // minimum then, so there is no fit -- and a bootstrap keeps only the
  // refits whose resample missed the bad row.
  std::vector<double> y;
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 40; ++i) {
    y.push_back(1.0 + 0.01 * (i % 5));
    x.push_back({static_cast<double>(i)});
  }
  y[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(quantile_regression(y, x, 0.5).converged);
  const auto ci = quantile_regression_bootstrap_ci(y, x, 0.5, 200, 0.95, 7);
  EXPECT_TRUE(std::isfinite(ci.lower[1]) && std::isfinite(ci.upper[1]));
  y[3] = 1.0;
  x[5][0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(quantile_regression(y, x, 0.5).converged);
}

TEST(QuantReg, BootstrapCiBracketsEstimate) {
  rng::Xoshiro256 gen(5);
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) y.push_back(rng::lognormal(gen, 1.0, 0.5));
  const auto fit = quantile_regression(y, {}, 0.5);
  const auto ci = quantile_regression_bootstrap_ci(y, {}, 0.5, 100, 0.95, 42);
  ASSERT_EQ(ci.lower.size(), 1u);
  EXPECT_LE(ci.lower[0], fit.coefficients[0] + 1e-12);
  EXPECT_GE(ci.upper[0], fit.coefficients[0] - 1e-12);
  EXPECT_GT(ci.upper[0], ci.lower[0]);
}

// ------------------------------------------- differential vs the LP oracle

using Design = std::vector<std::vector<double>>;

struct OracleFit {
  double objective = 0.0;
  std::vector<double> coefficients;
};

/// The Koenker-Bassett LP solved by the dense two-phase simplex:
/// variables [b+ (p), b- (p), u+ (n), u- (n)] >= 0,
///   min tau * sum u+ + (1 - tau) * sum u-  s.t.  X (b+ - b-) + u+ - u- = y.
OracleFit lp_oracle(const std::vector<double>& y, const Design& design, double tau) {
  const std::size_t n = y.size();
  const std::size_t k = design.empty() ? 0 : design.front().size();
  const std::size_t p = k + 1;
  lp::Problem prob(n, 2 * p + 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    prob.set_coefficient(i, 0, 1.0);
    prob.set_coefficient(i, p, -1.0);
    for (std::size_t j = 0; j < k; ++j) {
      prob.set_coefficient(i, 1 + j, design[i][j]);
      prob.set_coefficient(i, p + 1 + j, -design[i][j]);
    }
    prob.set_coefficient(i, 2 * p + i, 1.0);
    prob.set_coefficient(i, 2 * p + n + i, -1.0);
    prob.set_rhs(i, y[i]);
    prob.set_objective(2 * p + i, tau);
    prob.set_objective(2 * p + n + i, 1.0 - tau);
  }
  const lp::Solution sol = prob.solve();
  EXPECT_EQ(sol.status, lp::Status::kOptimal);
  OracleFit fit;
  fit.objective = sol.objective;
  for (std::size_t j = 0; j < p; ++j) fit.coefficients.push_back(sol.x[j] - sol.x[p + j]);
  return fit;
}

double regressor(const Design& design, std::size_t i, std::size_t j) {
  return j == 0 ? 1.0 : design[i][j - 1];
}

double check_loss_sum(const std::vector<double>& y, const Design& design,
                      const std::vector<double>& b, double tau) {
  double loss = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    double r = y[i];
    for (std::size_t j = 0; j < b.size(); ++j) r -= regressor(design, i, j) * b[j];
    loss += r * (r < 0.0 ? tau - 1.0 : tau);
  }
  return loss;
}

/// Subgradient optimality: 0 is in the subdifferential of the check
/// loss at b iff weights a_i in [tau - 1, tau] on the zero residuals
/// balance the fixed pull of the others,
///   sum_{r_i = 0} a_i x_i = -sum_{r_i != 0} psi_i x_i,
/// psi_i = tau (r_i > 0) or tau - 1 (r_i < 0). The bounded weights are
/// a_i = tau - 1 + s_i with s_i + t_i = 1; feasibility is an LP.
bool subgradient_optimal(const std::vector<double>& y, const Design& design,
                         const std::vector<double>& b, double tau) {
  const std::size_t p = b.size();
  std::vector<double> rhs(p, 0.0);
  std::vector<std::size_t> zeros;
  double scale = 1.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    double fit = 0.0;
    double mag = std::fabs(y[i]);
    for (std::size_t j = 0; j < p; ++j) {
      fit += regressor(design, i, j) * b[j];
      mag += std::fabs(regressor(design, i, j) * b[j]);
    }
    const double r = y[i] - fit;
    if (std::fabs(r) <= 1e-9 * (mag + 1.0)) {
      zeros.push_back(i);
      for (std::size_t j = 0; j < p; ++j) rhs[j] -= (tau - 1.0) * regressor(design, i, j);
      continue;
    }
    const double psi = r > 0.0 ? tau : tau - 1.0;
    for (std::size_t j = 0; j < p; ++j) rhs[j] -= psi * regressor(design, i, j);
  }
  for (std::size_t i = 0; i < y.size(); ++i) {
    for (std::size_t j = 0; j < p; ++j) scale = std::max(scale, std::fabs(regressor(design, i, j)));
  }
  const std::size_t z = zeros.size();
  lp::Problem prob(p + z, 2 * z);
  for (std::size_t m = 0; m < z; ++m) {
    // Rows are divided by the regressor scale so the phase-I
    // feasibility threshold reads as a relative one.
    for (std::size_t j = 0; j < p; ++j) {
      prob.set_coefficient(j, m, regressor(design, zeros[m], j) / scale);
    }
    prob.set_coefficient(p + m, m, 1.0);
    prob.set_coefficient(p + m, z + m, 1.0);
    prob.set_rhs(p + m, 1.0);
  }
  for (std::size_t j = 0; j < p; ++j) prob.set_rhs(j, rhs[j] / scale);
  return prob.solve().status == lp::Status::kOptimal;
}

/// Fits one case with the solver and the oracle and checks that both
/// reach the same optimal loss and that the solver's fit is optimal.
void expect_matches_oracle(const std::vector<double>& y, const Design& design, double tau,
                           const std::string& label) {
  const auto fit = quantile_regression(y, design, tau);
  ASSERT_TRUE(fit.converged) << label;
  const std::size_t p = (design.empty() ? 0 : design.front().size()) + 1;
  ASSERT_EQ(fit.coefficients.size(), p) << label;
  const OracleFit oracle = lp_oracle(y, design, tau);
  double floor = 0.0;
  for (double v : y) floor += std::fabs(v);
  floor = 1e-13 * floor + 1e-300;
  EXPECT_NEAR(fit.objective, oracle.objective, 1e-12 * std::fabs(oracle.objective) + floor)
      << label;
  EXPECT_NEAR(check_loss_sum(y, design, fit.coefficients, tau), fit.objective,
              1e-12 * std::fabs(fit.objective) + floor)
      << label;
  EXPECT_TRUE(subgradient_optimal(y, design, fit.coefficients, tau)) << label;
}

constexpr double kTaus[] = {0.1, 0.25, 0.5, 0.9};

/// Runs `make` for every (k, tau, rep) and checks each case.
void differential_sweep(const char* name, std::size_t reps,
                        const std::function<void(rng::Xoshiro256&, std::size_t k,
                                                 std::vector<double>&, Design&)>& make) {
  rng::Xoshiro256 gen(0xd1ff);
  for (std::size_t k = 0; k <= 3; ++k) {
    for (const double tau : kTaus) {
      for (std::size_t rep = 0; rep < reps; ++rep) {
        std::vector<double> y;
        Design design;
        make(gen, k, y, design);
        expect_matches_oracle(y, design, tau,
                              std::string(name) + " k=" + std::to_string(k) +
                                  " tau=" + std::to_string(tau) + " rep=" +
                                  std::to_string(rep));
      }
    }
  }
}

TEST(QuantRegDifferential, ContinuousDesigns) {
  differential_sweep("continuous", 6, [](rng::Xoshiro256& gen, std::size_t k,
                                         std::vector<double>& y, Design& design) {
    const std::size_t n = 5 + rng::uniform_below(gen, 50);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row;
      double mean = 1.0;
      for (std::size_t j = 0; j < k; ++j) {
        row.push_back(rng::normal(gen, 0.0, 3.0));
        mean += 0.5 * static_cast<double>(j + 1) * row.back();
      }
      if (k > 0) design.push_back(row);
      y.push_back(mean + rng::lognormal(gen, 0.0, 0.8));
    }
  });
}

TEST(QuantRegDifferential, BootstrapDuplicates) {
  // Resampling with replacement puts repeated rows on the basis: the
  // degenerate vertices the trend detector's refits hit.
  differential_sweep("duplicates", 6, [](rng::Xoshiro256& gen, std::size_t k,
                                         std::vector<double>& y, Design& design) {
    const std::size_t n = 6 + rng::uniform_below(gen, 40);
    std::vector<double> base_y;
    Design base_x;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row;
      for (std::size_t j = 0; j < k; ++j) row.push_back(static_cast<double>(i) * (j + 1.0));
      base_x.push_back(row);
      base_y.push_back(1.0 + 0.01 * static_cast<double>(i) + rng::normal(gen, 0.0, 0.2));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(rng::uniform_below(gen, n));
      y.push_back(base_y[idx]);
      if (k > 0) design.push_back(base_x[idx]);
    }
  });
}

TEST(QuantRegDifferential, CollinearQuantisedPoints) {
  // Medians quantised to a coarse grid on an integer sequence: many
  // points lie exactly on the lines through any two of them.
  differential_sweep("collinear", 6, [](rng::Xoshiro256& gen, std::size_t k,
                                        std::vector<double>& y, Design& design) {
    const std::size_t n = 6 + rng::uniform_below(gen, 40);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row;
      for (std::size_t j = 0; j < k; ++j) {
        row.push_back(static_cast<double>((i * (j + 1)) % (n / (j + 1) + 2)));
      }
      if (k > 0) design.push_back(row);
      const double level = 2.0 + 0.25 * static_cast<double>(i / 3);
      y.push_back(level + 0.25 * static_cast<double>(rng::uniform_below(gen, 3)));
    }
  });
}

TEST(QuantRegDifferential, BinaryFactors) {
  differential_sweep("binary", 6, [](rng::Xoshiro256& gen, std::size_t k,
                                     std::vector<double>& y, Design& design) {
    const std::size_t n = 6 + rng::uniform_below(gen, 50);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row;
      double level = 1.0;
      for (std::size_t j = 0; j < k; ++j) {
        row.push_back(static_cast<double>(rng::uniform_below(gen, 2)));
        level += 0.3 * row.back();
      }
      if (k > 0) design.push_back(row);
      y.push_back(level * rng::lognormal(gen, 0.0, 0.3));
    }
  });
}

TEST(QuantRegDifferential, NegativeAndZeroResponses) {
  differential_sweep("signed", 6, [](rng::Xoshiro256& gen, std::size_t k,
                                     std::vector<double>& y, Design& design) {
    const std::size_t n = 4 + rng::uniform_below(gen, 40);
    const bool all_zero = rng::uniform_below(gen, 4) == 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row;
      for (std::size_t j = 0; j < k; ++j) {
        row.push_back(static_cast<double>(rng::uniform_below(gen, 7)) - 3.0);
      }
      if (k > 0) design.push_back(row);
      y.push_back(all_zero ? 0.0 : static_cast<double>(rng::uniform_below(gen, 7)) - 3.0);
    }
  });
}

TEST(QuantRegDifferential, RankDeficientDesigns) {
  // A zero column, a column repeating the intercept, a repeated
  // regressor, and a single design point: no basis of p independent
  // rows exists, yet the loss still has a minimum.
  differential_sweep("rank-deficient", 4, [](rng::Xoshiro256& gen, std::size_t k,
                                             std::vector<double>& y, Design& design) {
    const std::size_t n = 5 + rng::uniform_below(gen, 30);
    const std::uint64_t flavour = rng::uniform_below(gen, 4);
    const double point = rng::normal(gen, 0.0, 2.0);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row;
      const double xi = rng::normal(gen, 0.0, 2.0);
      for (std::size_t j = 0; j < k; ++j) {
        switch (flavour) {
          case 0: row.push_back(j == 0 ? 0.0 : xi * static_cast<double>(j)); break;
          case 1: row.push_back(j == 0 ? 1.0 : xi); break;
          case 2: row.push_back(xi); break;
          default: row.push_back(point + static_cast<double>(j)); break;
        }
      }
      if (k > 0) design.push_back(row);
      y.push_back(1.0 + 0.5 * xi + rng::normal(gen, 0.0, 1.0));
    }
  });
}

TEST(QuantRegDifferential, FewerObservationsThanCoefficients) {
  const std::vector<double> y = {3.0, -1.0};
  const Design design = {{1.0, 2.0, 0.5}, {0.0, 1.0, 4.0}};
  for (const double tau : kTaus) {
    const auto fit = quantile_regression(y, design, tau);
    ASSERT_TRUE(fit.converged);
    EXPECT_EQ(fit.objective, 0.0);
    EXPECT_NEAR(check_loss_sum(y, design, fit.coefficients, tau), 0.0, 1e-12);
  }
}

TEST(QuantRegDifferential, TrendDetectorRefits) {
  // The detector's exact shape: tau = 0.5 on (index, median) pairs,
  // resampled with replacement as quantile_regression_bootstrap_ci does.
  rng::Xoshiro256 gen(0x5c1b3);
  for (const std::size_t n : {6u, 16u, 33u, 41u}) {
    std::vector<double> medians;
    for (std::size_t i = 0; i < n; ++i) {
      // Quantised to 1e-3 like recorded medians, with a mild drift.
      medians.push_back(std::round(1000.0 * (1.0 + 0.002 * static_cast<double>(i) +
                                             rng::normal(gen, 0.0, 0.01))) /
                        1000.0);
    }
    for (std::size_t rep = 0; rep < 40; ++rep) {
      std::vector<double> y;
      Design design;
      for (std::size_t i = 0; i < n; ++i) {
        const auto idx = static_cast<std::size_t>(rng::uniform_below(gen, n));
        y.push_back(medians[idx]);
        design.push_back({static_cast<double>(idx)});
      }
      expect_matches_oracle(y, design, 0.5,
                            "n=" + std::to_string(n) + " rep=" + std::to_string(rep));
    }
  }
}

// ------------------------------- bootstrap refits vs the LP oracle

/// Every refit behind quantile_regression_bootstrap_ci solves its
/// resample's distinct rows weighted by their draw counts, starting
/// from the full-sample basis. Each must reach the oracle's optimal loss
/// on the expanded resample -- the n drawn rows, duplicates and all --
/// which the test redraws from the lanes' generators. A resample that
/// holds a non-finite row must not converge.
void expect_refits_optimal(const std::vector<double>& y, const Design& design, double tau,
                           std::size_t replicates, std::uint64_t seed, std::size_t lanes,
                           const std::string& label) {
  const auto reps = detail::quantile_regression_replicates(y, design, tau, replicates, seed,
                                                           ExecPolicy{1, lanes});
  const std::size_t n = y.size();
  const std::size_t p = (design.empty() ? 0 : design.front().size()) + 1;
  ASSERT_EQ(reps.converged.size(), replicates) << label;
  ASSERT_EQ(reps.coefficients.size(), replicates * p) << label;
  rng::LaneRng lane_rng;
  lane_rng.reset(seed, lanes);
  const auto finite_row = [&](std::size_t i) {
    bool finite = std::isfinite(y[i]);
    if (!design.empty()) {
      for (const double v : design[i]) finite = finite && std::isfinite(v);
    }
    return finite;
  };
  for (std::size_t l = 0; l < lanes; ++l) {
    rng::Xoshiro256& gen = lane_rng.lane(l);
    const std::size_t first = l * (replicates / lanes) + std::min(l, replicates % lanes);
    const std::size_t len = replicates / lanes + (l < replicates % lanes ? 1 : 0);
    for (std::size_t r = first; r < first + len; ++r) {
      std::vector<double> yb;
      Design xb;
      bool finite = true;
      for (std::size_t i = 0; i < n; ++i) {
        const auto idx = static_cast<std::size_t>(rng::uniform_below(gen, n));
        finite = finite && finite_row(idx);
        yb.push_back(y[idx]);
        if (!design.empty()) xb.push_back(design[idx]);
      }
      const std::string where = label + " refit=" + std::to_string(r);
      if (!finite) {
        EXPECT_FALSE(reps.converged[r]) << where;
        continue;
      }
      ASSERT_TRUE(reps.converged[r]) << where;
      const std::vector<double> b(reps.coefficients.begin() + static_cast<std::ptrdiff_t>(r * p),
                                  reps.coefficients.begin() +
                                      static_cast<std::ptrdiff_t>((r + 1) * p));
      const OracleFit oracle = lp_oracle(yb, xb, tau);
      double floor = 0.0;
      for (const double v : yb) floor += std::fabs(v);
      floor = 1e-13 * floor + 1e-300;
      EXPECT_NEAR(check_loss_sum(yb, xb, b, tau), oracle.objective,
                  1e-12 * std::fabs(oracle.objective) + floor)
          << where;
    }
  }
}

/// Runs `make` for every (k, tau) and checks each refit of a
/// `replicates`-refit bootstrap of the case.
void refit_sweep(const char* name, std::size_t replicates,
                 const std::function<void(rng::Xoshiro256&, std::size_t k,
                                          std::vector<double>&, Design&)>& make) {
  rng::Xoshiro256 gen(0xb007);
  for (std::size_t k = 0; k <= 3; ++k) {
    for (const double tau : kTaus) {
      std::vector<double> y;
      Design design;
      make(gen, k, y, design);
      expect_refits_optimal(y, design, tau, replicates, 0x5c1b3 + k, 1,
                            std::string(name) + " k=" + std::to_string(k) +
                                " tau=" + std::to_string(tau));
    }
  }
}

TEST(QuantRegBootstrapRefits, QuantisedTiesReachTheOraclesLoss) {
  // Medians on a coarse grid over an integer sequence: tied responses,
  // exactly collinear triples, and resamples that repeat them.
  refit_sweep("quantised", 25, [](rng::Xoshiro256& gen, std::size_t k,
                                  std::vector<double>& y, Design& design) {
    const std::size_t n = 8 + rng::uniform_below(gen, 34);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row;
      for (std::size_t j = 0; j < k; ++j) {
        row.push_back(static_cast<double>((i * (j + 1)) % (n / (j + 1) + 2)));
      }
      if (k > 0) design.push_back(row);
      y.push_back(std::round(100.0 * (1.0 + 0.004 * static_cast<double>(i) +
                                      rng::normal(gen, 0.0, 0.02))) /
                  100.0);
    }
  });
}

TEST(QuantRegBootstrapRefits, BinaryFactorsReachTheOraclesLoss) {
  // The Figure 4 design and its multi-factor kin: resamples that drop
  // every row of one level leave a rank-deficient design.
  refit_sweep("binary", 25, [](rng::Xoshiro256& gen, std::size_t k,
                               std::vector<double>& y, Design& design) {
    const std::size_t n = 8 + rng::uniform_below(gen, 34);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row;
      double level = 1.0;
      for (std::size_t j = 0; j < k; ++j) {
        row.push_back(static_cast<double>(rng::uniform_below(gen, 2)));
        level += 0.3 * row.back();
      }
      if (k > 0) design.push_back(row);
      y.push_back(level * rng::lognormal(gen, 0.0, 0.3));
    }
  });
}

TEST(QuantRegBootstrapRefits, TrendDetectorShapeAtSeveralLanes) {
  // The detector's own call: tau = 0.5 on (index, median), 200 refits,
  // sharded over 1 and 3 lanes.
  rng::Xoshiro256 gen(0x7e4d);
  std::vector<double> medians;
  Design design;
  for (std::size_t i = 0; i < 41; ++i) {
    medians.push_back(std::round(1000.0 * (1.0 + 0.002 * static_cast<double>(i) +
                                           rng::normal(gen, 0.0, 0.01))) /
                      1000.0);
    design.push_back({static_cast<double>(i)});
  }
  for (const std::size_t lanes : {1u, 3u}) {
    expect_refits_optimal(medians, design, 0.5, 200, 0x5c1b3, lanes,
                          "trend lanes=" + std::to_string(lanes));
  }
}

TEST(QuantRegBootstrapRefits, NanRowLeavesOnlyTheRefitsThatDrawIt) {
  // A history median recorded as null: no full-sample fit, so every
  // refit starts cold; those that draw the row do not converge.
  std::vector<double> y;
  Design design;
  for (std::size_t i = 0; i < 30; ++i) {
    y.push_back(1.0 + 0.01 * static_cast<double>(i % 7));
    design.push_back({static_cast<double>(i), static_cast<double>(i % 2)});
  }
  y[11] = std::numeric_limits<double>::quiet_NaN();
  for (const double tau : kTaus) {
    const auto reps = detail::quantile_regression_replicates(y, design, tau, 60, 99);
    EXPECT_FALSE(reps.fit.converged);
    EXPECT_NE(std::count(reps.converged.begin(), reps.converged.end(), 0), 0);
    EXPECT_NE(std::count(reps.converged.begin(), reps.converged.end(), 1), 0);
    expect_refits_optimal(y, design, tau, 60, 99, 1, "nan tau=" + std::to_string(tau));
  }
  // The one-call entry runs no refit at all without a point fit.
  const auto both = quantile_regression_with_ci(y, design, 0.5);
  EXPECT_FALSE(both.fit.converged);
  EXPECT_TRUE(both.ci.lower.empty());
}

TEST(QuantRegBootstrapRefits, OneCallMatchesTheSeparateFitAndCi) {
  rng::Xoshiro256 gen(0x0c11);
  std::vector<double> y;
  Design design;
  for (std::size_t i = 0; i < 33; ++i) {
    y.push_back(std::round(100.0 * (2.0 + 0.01 * static_cast<double>(i) +
                                    rng::normal(gen, 0.0, 0.05))) /
                100.0);
    design.push_back({static_cast<double>(i)});
  }
  const auto both = quantile_regression_with_ci(y, design, 0.5, 200, 0.95, 0x5c1b3);
  const auto fit = quantile_regression(y, design, 0.5);
  const auto ci = quantile_regression_bootstrap_ci(y, design, 0.5, 200, 0.95, 0x5c1b3);
  ASSERT_TRUE(both.fit.converged);
  EXPECT_EQ(both.fit.coefficients, fit.coefficients);
  EXPECT_EQ(both.fit.objective, fit.objective);
  EXPECT_EQ(both.ci.lower, ci.lower);
  EXPECT_EQ(both.ci.upper, ci.upper);
}

}  // namespace
}  // namespace sci::stats
