// Deterministic samplers over Xoshiro256.
//
// Each sampler consumes a fixed, documented number of generator draws per
// sample so simulated experiments replay identically regardless of
// platform or standard library.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/xoshiro.hpp"

namespace sci::rng {

/// Uniform double in [0, 1) with 53 bits of precision (1 draw).
[[nodiscard]] inline double uniform01(Xoshiro256& gen) noexcept {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// Uniform double in [lo, hi) (1 draw).
[[nodiscard]] double uniform(Xoshiro256& gen, double lo, double hi) noexcept;

/// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
/// Inline: shuffle-heavy paths (node allocation on every World reset)
/// make one call per element, and the generator itself is inline.
[[nodiscard]] inline std::uint64_t uniform_below(Xoshiro256& gen,
                                                 std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire 2019: unbiased bounded integers without division in the hot path.
  std::uint64_t x = gen();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = gen();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Standard normal via Box-Muller (always consumes 2 draws; the second
/// deviate is intentionally discarded for replay stability).
[[nodiscard]] double normal(Xoshiro256& gen) noexcept;

/// Normal with given mean and standard deviation.
[[nodiscard]] double normal(Xoshiro256& gen, double mean, double stddev) noexcept;

/// Log-normal: exp(N(mu, sigma)). `mu`/`sigma` act on the log scale.
[[nodiscard]] double lognormal(Xoshiro256& gen, double mu, double sigma) noexcept;

/// Exponential with rate lambda (mean 1/lambda).
[[nodiscard]] double exponential(Xoshiro256& gen, double lambda) noexcept;

/// Pareto (type I) with scale x_m > 0 and shape alpha > 0. Heavy right
/// tail; models rare long OS-noise detours (Hoefler et al., SC'10).
[[nodiscard]] double pareto(Xoshiro256& gen, double scale, double shape) noexcept;

/// Bernoulli trial with probability p (1 draw).
[[nodiscard]] bool bernoulli(Xoshiro256& gen, double p) noexcept;

/// Fisher-Yates shuffle (size-1 draws, one uniform_below per step).
inline void shuffle(Xoshiro256& gen, std::span<std::size_t> values) noexcept {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = uniform_below(gen, i);
    std::swap(values[i - 1], values[j]);
  }
}

/// Convenience: n iid samples from `sampler(gen)`.
template <typename Sampler>
[[nodiscard]] std::vector<double> sample_n(Xoshiro256& gen, std::size_t n, Sampler&& sampler) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(sampler(gen));
  return out;
}

}  // namespace sci::rng
