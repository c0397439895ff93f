// Threaded measurement driver: the shared-memory analogue of the
// simulated-MPI reduce benchmark. Every iteration,
//   1. the team meets at a barrier,
//   2. thread 0 publishes a real-time start deadline one window ahead
//      (the paper's delay-window scheme, Section 4.2.1 -- threads share
//      a clock, so the window only needs to cover barrier-exit skew),
//   3. each thread spins until the deadline, then times the kernel.
// Returns the per-thread sample matrix so Rule 10 analyses (ANOVA
// across threads, max-vs-median summaries) run on real data.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace sci::threads {

struct ThreadedMeasurementOptions {
  std::size_t threads = 2;
  std::size_t iterations = 100;
  std::size_t warmup = 3;
  double window_s = 200e-6;  ///< start deadline distance past the barrier
};

struct ThreadedMeasurement {
  /// times_ns[i][t]: duration of iteration i on thread t.
  std::vector<std::vector<double>> times_ns;
  /// start_skew_ns[i]: spread of actual kernel-start times in iteration i
  /// (how well the window scheme synchronized the team).
  std::vector<double> start_skew_ns;

  [[nodiscard]] std::vector<double> thread_series(std::size_t thread) const;
  [[nodiscard]] std::vector<double> max_across_threads() const;
};

/// Measures `kernel(thread_id)` on a fresh team whose thread 0 is the
/// caller. The kernel runs `iterations + warmup` times per thread;
/// warmup iterations are discarded.
[[nodiscard]] ThreadedMeasurement measure_threaded(
    const std::function<void(std::size_t)>& kernel,
    const ThreadedMeasurementOptions& options = {});

}  // namespace sci::threads
