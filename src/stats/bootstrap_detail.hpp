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

/// jack[i] = mean of xs with element i removed, for i in [lo, hi):
/// Kahan over xs in original order skipping i -- the op sequence
/// arithmetic_mean runs on the materialized loo vector. Range form so
/// callers can shard indices across threads; each entry depends only
/// on i, so any sharding produces the serial loop's bytes.
void jackknife_mean_range(std::span<const double> xs, double* jack, std::size_t lo,
                          std::size_t hi) noexcept;

/// jack[i] = loo_quantile(sorted, rank[i], p, method) for i in [lo, hi).
/// Same sharding contract as jackknife_mean_range.
void jackknife_quantile_range(std::span<const double> sorted, const std::uint32_t* rank,
                              double p, QuantileMethod method, double* jack,
                              std::size_t lo, std::size_t hi);

/// BCa interval from a *sorted* bootstrap distribution + jackknife values.
[[nodiscard]] Interval bca_interval(std::span<const double> dist, double theta_hat,
                                    std::span<const double> jack, double confidence);

/// Argument validation shared by all bootstrap entry points.
void require_valid(std::span<const double> xs, std::size_t replicates);

}  // namespace sci::stats::detail
