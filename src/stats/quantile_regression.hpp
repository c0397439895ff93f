// Quantile regression (Section 3.2.3): models the effect of factors on
// arbitrary quantiles. Solved exactly: the Koenker & Bassett (1978)
// linear program is walked vertex to vertex by a Barrodale-Roberts
// descent over p basic observations (p x p basis inverse, O(n p) per
// step), with degenerate vertices resolved by lexicographic
// perturbation. Fits are LP optima; where the optimum is not unique,
// any optimal vertex may be returned.
//
// The paper's Figure 4 use case -- latency ~ system indicator -- is a
// one-regressor design; the general interface accepts any design matrix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/exec_policy.hpp"

namespace sci::stats {

struct QuantRegResult {
  /// False -- and coefficients empty -- when y or the design holds a NaN
  /// or infinity; rank-deficient designs still converge.
  bool converged = false;
  double tau = 0.5;                   ///< fitted quantile
  std::vector<double> coefficients;   ///< [intercept, beta_1, ...]
  double objective = 0.0;             ///< sum of check-function losses
};

/// Fits  Q_tau(y | x) = b0 + b1 x1 + ... + bk xk  by minimizing the
/// check loss  sum_i rho_tau(y_i - x_i' b)  via LP.
/// `design` holds the regressor rows *without* the intercept column
/// (it is added internally); pass an empty design for a pure intercept
/// model, whose solution is the tau-quantile of y.
[[nodiscard]] QuantRegResult quantile_regression(std::span<const double> y,
                                                 std::span<const std::vector<double>> design,
                                                 double tau);

/// Sweep of taus for QR plots (paper Figure 4: quantiles on the x-axis).
[[nodiscard]] std::vector<QuantRegResult> quantile_regression_sweep(
    std::span<const double> y, std::span<const std::vector<double>> design,
    std::span<const double> taus);

/// Bootstrap percentile CI [lower, upper] of each coefficient (xy-pair
/// bootstrap, `replicates` refits on resampled data, deterministic seed).
/// Each refit solves the resample's distinct rows weighted by their
/// draw counts -- the same loss as the duplicated rows -- starting from
/// the full-sample fit's basis. Refits are sharded across `policy.lanes`
/// RNG lanes and min(policy.threads, lanes) pooled workers; results are
/// a pure function of (data, tau, replicates, seed, lanes) -- any thread
/// count produces identical CIs, and the default {1, 1} policy draws the
/// historical single-stream resamples draw for draw. A refit whose
/// resample holds a NaN or infinite row does not converge and is left
/// out; fewer than 10 converged refits throw std::runtime_error.
struct QuantRegCI {
  std::vector<double> lower;
  std::vector<double> upper;
};
[[nodiscard]] QuantRegCI quantile_regression_bootstrap_ci(
    std::span<const double> y, std::span<const std::vector<double>> design, double tau,
    std::size_t replicates = 200, double confidence = 0.95,
    std::uint64_t seed = 0x5eedc0ffee, const ExecPolicy& policy = {});

/// quantile_regression and quantile_regression_bootstrap_ci from one
/// point fit: the refits warm-start from `fit`. When `fit` does not
/// converge no refit runs and `ci` stays empty.
struct QuantRegFitCI {
  QuantRegResult fit;
  QuantRegCI ci;
};
[[nodiscard]] QuantRegFitCI quantile_regression_with_ci(
    std::span<const double> y, std::span<const std::vector<double>> design, double tau,
    std::size_t replicates = 200, double confidence = 0.95,
    std::uint64_t seed = 0x5eedc0ffee, const ExecPolicy& policy = {});

namespace detail {

/// The refits behind quantile_regression_bootstrap_ci, before the
/// percentiles, for differential tests and benches. Refit r's p
/// coefficients sit at coefficients[r * p], valid when converged[r].
struct QuantRegReplicates {
  QuantRegResult fit;                 ///< the full-sample fit they start from
  std::vector<double> coefficients;   ///< [replicates x p]
  std::vector<char> converged;        ///< [replicates]
  std::vector<std::size_t> steps;     ///< [replicates] descent steps each took
};
[[nodiscard]] QuantRegReplicates quantile_regression_replicates(
    std::span<const double> y, std::span<const std::vector<double>> design, double tau,
    std::size_t replicates, std::uint64_t seed, const ExecPolicy& policy = {});

}  // namespace detail

}  // namespace sci::stats
