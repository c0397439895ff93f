// Noise models: the sources of nondeterminism the paper enumerates in
// its introduction -- OS jitter (task scheduling, interrupts), network
// background traffic, and per-run environment differences (batch
// allocation). Parameters follow the structure used in Hoefler,
// Schneider & Lumsdaine's noise-simulation work (SC'10): frequent short
// detours plus rare long ones with a heavy (Pareto) tail. All detour
// processes are *rates* (events per second of computation), so a 2 us
// collective entry and a 1 s HPL panel experience proportionate noise.
#pragma once

#include <cstdint>

#include "rng/xoshiro.hpp"

namespace sci::sim {

/// Local accumulator for noise observability: how often the noise models
/// fire and how much time they inject (the raw material of the paper's
/// Figures 5-6 variability). Publishing to the registry per draw is
/// measurable when simmpi perturbs every message of a million-event run,
/// so a NoiseTally batches the tallies in two plain integers and
/// publishes them in one registry transaction at flush(). The immediate
/// perturb() overloads record one draw into a local tally and flush it,
/// so both paths truncate each draw's injected time to ns the same way.
struct NoiseTally {
  std::uint64_t draws = 0;
  std::uint64_t injected_ns = 0;

  void record(double pure, double perturbed) noexcept {
    ++draws;
    if (perturbed > pure) {
      injected_ns += static_cast<std::uint64_t>((perturbed - pure) * 1e9);
    }
  }

  /// Publishes the batch into the obs counter registry and zeroes it.
  void flush() noexcept;
};

/// Perturbation model for compute intervals on one node.
struct ComputeNoise {
  /// Multiplicative jitter: duration *= 1 + |N(0, rel_jitter)|.
  double rel_jitter = 0.0;
  /// Poisson rate (1/s) of short OS detours (scheduler ticks, interrupts).
  double detour_rate = 0.0;
  /// Mean length (s) of a short detour (exponential).
  double detour_mean = 0.0;
  /// Poisson rate (1/s) of rare long detours (daemon bursts, page faults).
  double burst_rate = 0.0;
  /// Pareto scale/shape of a burst's length.
  double burst_scale = 0.0;
  double burst_shape = 2.0;

  /// Returns the perturbed duration of a pure compute interval.
  [[nodiscard]] double perturb(double duration, rng::Xoshiro256& gen) const;

  /// Same draw sequence, but tallies into `tally` instead of the global
  /// counter registry (hot-path batching; see NoiseTally).
  [[nodiscard]] double perturb(double duration, rng::Xoshiro256& gen, NoiseTally& tally) const;

 private:
  [[nodiscard]] double apply(double duration, rng::Xoshiro256& gen) const;
};

/// Perturbation model for one message transfer. Per-message events are
/// genuinely discrete, so these are probabilities, not rates.
struct NetworkNoise {
  /// Multiplicative jitter on the transfer time.
  double rel_jitter = 0.0;
  /// Probability that background traffic delays this message.
  double congestion_prob = 0.0;
  /// Mean extra delay (s) under congestion (exponential).
  double congestion_mean = 0.0;
  /// Probability of a rare severe event (route flap, deep congestion).
  double rare_prob = 0.0;
  /// Pareto scale/shape of the severe delay.
  double rare_scale = 0.0;
  double rare_shape = 2.0;

  /// Returns the perturbed transfer time.
  [[nodiscard]] double perturb(double duration, rng::Xoshiro256& gen) const;

  /// Same draw sequence, batched tallies (see NoiseTally).
  [[nodiscard]] double perturb(double duration, rng::Xoshiro256& gen, NoiseTally& tally) const;

 private:
  [[nodiscard]] double apply(double duration, rng::Xoshiro256& gen) const;
};

}  // namespace sci::sim
