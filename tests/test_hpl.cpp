#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hpl/lu.hpp"
#include "hpl/sim_hpl.hpp"
#include "sim/machine.hpp"
#include "stats/descriptive.hpp"

namespace sci::hpl {
namespace {

TEST(Lu, SolvesKnown2x2) {
  Matrix a(2, 2);
  a(0, 0) = 4.0; a(0, 1) = 3.0;
  a(1, 0) = 6.0; a(1, 1) = 3.0;
  Matrix orig = a;
  const auto lu = lu_factorize(a, 2);
  // b = (10, 12) -> x = (1, 2).
  const auto x = lu_solve(a, lu.pivots, {10.0, 12.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_LT(scaled_residual(orig, x, {10.0, 12.0}), 16.0);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  Matrix orig = a;
  const auto lu = lu_factorize(a, 1);
  const auto x = lu_solve(a, lu.pivots, {5.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a(3, 3);  // all zeros
  EXPECT_THROW(lu_factorize(a), std::runtime_error);
}

TEST(Lu, NonSquareRejected) {
  Matrix a(3, 4);
  EXPECT_THROW(lu_factorize(a), std::invalid_argument);
}

struct LuCase {
  std::size_t n;
  std::size_t block;
};

class LuSizes : public ::testing::TestWithParam<LuCase> {};

TEST_P(LuSizes, RandomSystemsSolveWithinHplTolerance) {
  const auto [n, block] = GetParam();
  Matrix a(n, n);
  std::vector<double> b;
  fill_linear_system(a, b, 1234 + n);
  Matrix orig = a;
  const auto lu = lu_factorize(a, block);
  const auto x = lu_solve(a, lu.pivots, b);
  // The HPL acceptance criterion.
  EXPECT_LT(scaled_residual(orig, x, b), 16.0);
}

TEST_P(LuSizes, FlopCountMatchesFormula) {
  const auto [n, block] = GetParam();
  Matrix a(n, n);
  std::vector<double> b;
  fill_linear_system(a, b, 99);
  const auto lu = lu_factorize(a, block);
  // The recorded flop count tracks the closed form (pivot-search and
  // reciprocal excluded from both).
  EXPECT_NEAR(static_cast<double>(lu.flops), lu_flop_count(n),
              0.02 * lu_flop_count(n) + 4.0 * n * n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LuSizes,
    ::testing::Values(LuCase{16, 4}, LuCase{33, 8}, LuCase{64, 16}, LuCase{100, 32},
                      LuCase{128, 64}, LuCase{150, 150} /* unblocked */,
                      LuCase{150, 1} /* fully unblocked columns */),
    [](const auto& tpi) {
      std::string name = "n";
      name += std::to_string(tpi.param.n);
      name += "_b";
      return name += std::to_string(tpi.param.block);
    });

TEST(Lu, BlockSizeDoesNotChangeResult) {
  const std::size_t n = 80;
  std::vector<double> x_ref;
  for (std::size_t block : {1, 8, 32, 80}) {
    Matrix a(n, n);
    std::vector<double> b;
    fill_linear_system(a, b, 555);
    const auto lu = lu_factorize(a, block);
    const auto x = lu_solve(a, lu.pivots, b);
    if (x_ref.empty()) {
      x_ref = x;
    } else {
      for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-8);
    }
  }
}

TEST(SimHpl, DeterministicPerSeed) {
  const auto machine = sim::make_daint();
  SimHplConfig cfg;
  cfg.n = 20000;  // small for test speed
  cfg.block = 1000;
  const auto a = simulate_hpl_run(machine, cfg, 7);
  const auto b = simulate_hpl_run(machine, cfg, 7);
  EXPECT_EQ(a.completion_s, b.completion_s);
  const auto c = simulate_hpl_run(machine, cfg, 8);
  EXPECT_NE(a.completion_s, c.completion_s);
}

TEST(SimHpl, Figure1CalibrationBracket) {
  // Paper (Figure 1): 50 runs on 64 nodes of Piz Daint, N = 314k;
  // completion times ~267-337 s, best rate 77.38 Tflop/s of 94.5 peak.
  const auto machine = sim::make_daint();
  const auto runs = simulate_hpl_series(machine, SimHplConfig{}, 50, 2015);
  std::vector<double> t;
  for (const auto& r : runs) t.push_back(r.completion_s);
  EXPECT_GT(stats::min_value(t), 250.0);
  EXPECT_LT(stats::min_value(t), 290.0);
  EXPECT_GT(stats::median(t), 275.0);
  EXPECT_LT(stats::median(t), 315.0);
  EXPECT_LT(stats::max_value(t), 380.0);
  // Best run within ~10% of the paper's 77.38 Tflop/s.
  double best = 0.0;
  for (const auto& r : runs) best = std::max(best, r.gflops / 1000.0);
  EXPECT_GT(best, 70.0);
  EXPECT_LT(best, 85.0);
}

TEST(SimHpl, RightSkewedCompletionTimes) {
  const auto runs = simulate_hpl_series(sim::make_daint(), SimHplConfig{}, 50, 77);
  std::vector<double> t;
  for (const auto& r : runs) t.push_back(r.completion_s);
  EXPECT_GT(stats::skewness(t), 0.0);
}

TEST(SimHpl, CommSmallFractionOfTotal) {
  const auto run = simulate_hpl_run(sim::make_daint(), SimHplConfig{}, 3);
  EXPECT_GT(run.comm_s, 0.0);
  EXPECT_LT(run.comm_s, 0.2 * run.completion_s);
  EXPECT_NEAR(run.completion_s, run.compute_s + run.comm_s, 1e-9);
}

TEST(SimHpl, ConfigValidation) {
  const auto machine = sim::make_daint();
  SimHplConfig bad_grid;
  bad_grid.grid_p = 7;  // 7*8 != 64
  EXPECT_THROW((void)simulate_hpl_run(machine, bad_grid, 1), std::invalid_argument);
  SimHplConfig bad_n;
  bad_n.n = 100;
  bad_n.block = 1024;
  EXPECT_THROW((void)simulate_hpl_run(machine, bad_n, 1), std::invalid_argument);
}

TEST(SimHpl, FlopFormula) {
  EXPECT_NEAR(hpl_flops(314'000), 2.0 / 3.0 * 3.096e16, 0.01 * 2e16);
  EXPECT_GT(hpl_flops(1000), lu_flop_count(1000));  // includes solve term
}

}  // namespace
}  // namespace sci::hpl
