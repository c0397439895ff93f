// The naive bootstrap oracle the differential tests compare
// BootstrapEngine against. It shares nothing with the engine's
// resampling: lane l draws from Xoshiro256(seed) jumped l times with
// scalar uniform_below calls, every replicate is evaluated on a
// materialized resample, and the jackknife materializes every
// leave-one-out vector. No waves, no rank selection, no threads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/bootstrap.hpp"
#include "stats/bootstrap_detail.hpp"
#include "stats/descriptive.hpp"

namespace sci::stats {

/// Contiguous per-lane replicate blocks (lane l gets base + (l < rem)
/// replicates), each drawn from its own jumped stream.
inline std::vector<double> reference_multilane(std::span<const double> xs,
                                               const Statistic& stat,
                                               std::size_t replicates, std::uint64_t seed,
                                               std::size_t lanes) {
  rng::Xoshiro256 root(seed);
  std::vector<rng::Xoshiro256> gens;
  for (std::size_t l = 0; l < lanes; ++l) gens.push_back(root.split());

  const std::size_t n = xs.size();
  const std::size_t base = replicates / lanes;
  const std::size_t rem = replicates % lanes;
  std::vector<double> out(replicates);
  std::vector<double> resample(n);
  std::size_t start = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::size_t len = base + (l < rem ? 1 : 0);
    auto& gen = gens[l];
    for (std::size_t r = 0; r < len; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        resample[i] = xs[rng::uniform_below(gen, n)];
      }
      out[start + r] = stat(resample);
    }
    start += len;
  }
  return out;
}

/// Percentile CI over the single-lane oracle distribution.
inline Interval reference_percentile_ci(std::span<const double> xs, const Statistic& stat,
                                        std::size_t replicates, double confidence,
                                        std::uint64_t seed) {
  auto dist = reference_multilane(xs, stat, replicates, seed, 1);
  std::sort(dist.begin(), dist.end());
  const double alpha = 1.0 - confidence;
  return {quantile_sorted(dist, alpha / 2.0), quantile_sorted(dist, 1.0 - alpha / 2.0),
          confidence};
}

/// BCa CI over the single-lane oracle distribution, with leave-one-out
/// values from materialized vectors. Only the interval formula itself
/// (detail::bca_interval) is shared with the engine.
inline Interval reference_bca_ci(std::span<const double> xs, const Statistic& stat,
                                 std::size_t replicates, double confidence,
                                 std::uint64_t seed) {
  auto dist = reference_multilane(xs, stat, replicates, seed, 1);
  std::sort(dist.begin(), dist.end());
  const std::size_t n = xs.size();
  std::vector<double> jack(n);
  std::vector<double> loo;
  for (std::size_t i = 0; i < n; ++i) {
    loo.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) loo.push_back(xs[j]);
    }
    jack[i] = stat(loo);
  }
  return detail::bca_interval(dist, stat(xs), jack, confidence);
}

}  // namespace sci::stats
