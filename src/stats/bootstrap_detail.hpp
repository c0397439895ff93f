// Internal kernels of the bootstrap: sample ranking, leave-one-out
// jackknife values and the BCa interval, defined in bootstrap.cpp and
// run by BootstrapEngine (bootstrap_engine.cpp). Not part of the public
// stats API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"

namespace sci::stats::detail {

/// Sorts `xs` into `sorted` and fills rank[i] = position of xs[i] in the
/// sorted order (ties broken by index). Caller-owned buffers; alloc-free
/// once capacities are warm.
void rank_into(std::span<const double> xs, std::vector<double>& sorted,
               std::vector<std::uint32_t>& rank,
               std::vector<std::uint32_t>& order_scratch);

/// p-quantile of `sorted` with position `skip` removed, without copying.
[[nodiscard]] double loo_quantile(std::span<const double> sorted, std::size_t skip,
                                  double p, QuantileMethod method);

/// jack[i] = mean of xs with element i removed: Kahan over xs in
/// original order skipping i -- the op sequence arithmetic_mean runs on
/// the materialized loo vector. jack.size() == xs.size().
void jackknife_mean(std::span<const double> xs, std::span<double> jack) noexcept;

/// BCa interval from a *sorted* bootstrap distribution + jackknife values.
[[nodiscard]] Interval bca_interval(std::span<const double> dist, double theta_hat,
                                    std::span<const double> jack, double confidence);

/// Argument validation shared by all bootstrap entry points.
void require_valid(std::span<const double> xs, std::size_t replicates);

}  // namespace sci::stats::detail
