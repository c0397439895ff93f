#include "sim/noise.hpp"

#include <cmath>

#include "obs/counters.hpp"
#include "rng/distributions.hpp"

namespace sci::sim {
namespace {

/// Poisson count via inversion; rates here keep lambda small.
unsigned poisson_count(double lambda, rng::Xoshiro256& gen) {
  if (lambda <= 0.0) return 0;
  double p = std::exp(-lambda);
  double cdf = p;
  const double u = rng::uniform01(gen);
  unsigned k = 0;
  while (u > cdf && k < 10000) {
    ++k;
    p *= lambda / static_cast<double>(k);
    cdf += p;
  }
  return k;
}

}  // namespace

void NoiseTally::flush() noexcept {
  if (draws == 0) return;
  static obs::Counter& draws_counter = obs::counter(obs::keys::kNoiseDraws);
  static obs::Counter& injected_counter = obs::counter(obs::keys::kNoiseInjectedNs);
  draws_counter.add(draws);
  if (injected_ns > 0) injected_counter.add(injected_ns);
  draws = 0;
  injected_ns = 0;
}

double ComputeNoise::apply(double duration, rng::Xoshiro256& gen) const {
  double out = duration;
  if (rel_jitter > 0.0) out *= 1.0 + std::fabs(rng::normal(gen, 0.0, rel_jitter));
  if (detour_rate > 0.0 && detour_mean > 0.0) {
    const double lambda = detour_rate * duration;
    if (lambda > 50.0) {
      // CLT shortcut for long intervals: the summed detour time of a
      // Poisson(lambda) number of Exp(mean) detours is approximately
      // N(lambda*mean, sqrt(2*lambda)*mean). Keeps 1-second HPL panels
      // from drawing hundreds of exponentials each.
      const double total = rng::normal(gen, lambda * detour_mean,
                                       std::sqrt(2.0 * lambda) * detour_mean);
      out += std::max(0.0, total);
    } else {
      const unsigned k = poisson_count(lambda, gen);
      for (unsigned i = 0; i < k; ++i) out += rng::exponential(gen, 1.0 / detour_mean);
    }
  }
  if (burst_rate > 0.0 && burst_scale > 0.0) {
    const unsigned k = poisson_count(burst_rate * duration, gen);
    for (unsigned i = 0; i < k; ++i) out += rng::pareto(gen, burst_scale, burst_shape);
  }
  return out;
}

double ComputeNoise::perturb(double duration, rng::Xoshiro256& gen) const {
  NoiseTally tally;
  const double out = perturb(duration, gen, tally);
  tally.flush();
  return out;
}

double ComputeNoise::perturb(double duration, rng::Xoshiro256& gen, NoiseTally& tally) const {
  const double out = apply(duration, gen);
  tally.record(duration, out);
  return out;
}

double NetworkNoise::apply(double duration, rng::Xoshiro256& gen) const {
  double out = duration;
  if (rel_jitter > 0.0) out *= 1.0 + std::fabs(rng::normal(gen, 0.0, rel_jitter));
  if (congestion_prob > 0.0 && rng::bernoulli(gen, congestion_prob)) {
    out += rng::exponential(gen, 1.0 / congestion_mean);
  }
  if (rare_prob > 0.0 && rng::bernoulli(gen, rare_prob)) {
    out += rng::pareto(gen, rare_scale, rare_shape);
  }
  return out;
}

double NetworkNoise::perturb(double duration, rng::Xoshiro256& gen) const {
  NoiseTally tally;
  const double out = perturb(duration, gen, tally);
  tally.flush();
  return out;
}

double NetworkNoise::perturb(double duration, rng::Xoshiro256& gen, NoiseTally& tally) const {
  const double out = apply(duration, gen);
  tally.record(duration, out);
  return out;
}

}  // namespace sci::sim
