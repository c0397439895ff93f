#include "rng/distributions.hpp"

#include <cmath>
#include <numbers>

namespace sci::rng {

double uniform(Xoshiro256& gen, double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01(gen);
}

double normal(Xoshiro256& gen) noexcept {
  // Box-Muller. u1 is nudged away from 0 so log() stays finite.
  const double u1 = uniform01(gen);
  const double u2 = uniform01(gen);
  const double r = std::sqrt(-2.0 * std::log(u1 + 0x1.0p-54));
  return r * std::cos(2.0 * std::numbers::pi * u2);
}

double normal(Xoshiro256& gen, double mean, double stddev) noexcept {
  return mean + stddev * normal(gen);
}

double lognormal(Xoshiro256& gen, double mu, double sigma) noexcept {
  return std::exp(normal(gen, mu, sigma));
}

double exponential(Xoshiro256& gen, double lambda) noexcept {
  return -std::log1p(-uniform01(gen)) / lambda;
}

double pareto(Xoshiro256& gen, double scale, double shape) noexcept {
  return scale / std::pow(1.0 - uniform01(gen), 1.0 / shape);
}

bool bernoulli(Xoshiro256& gen, double p) noexcept {
  return uniform01(gen) < p;
}

}  // namespace sci::rng
