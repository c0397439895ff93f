// Execution policy for data-parallel statistics kernels.
//
// Determinism contract (the whole point of this knob): a kernel's result
// is a pure function of (data, statistic, replicates, seed, lanes).
// `threads` only changes wall-clock time -- any thread count produces
// byte-identical output for a fixed lane count, because lanes, not
// threads, own the RNG streams (each lane is an independent xoshiro256++
// stream derived from the seed by repeated jump()). `lanes` *is* part of
// the result's identity: changing it reshards replicates across streams
// and therefore changes which draws feed which replicate. The default
// policy {1, 1} reproduces the historical single-stream scalar path
// bit-for-bit.
#pragma once

#include <cstddef>

namespace sci::stats {

/// Largest ExecPolicy::threads the command-line tools accept.
inline constexpr std::size_t kMaxThreads = 256;

struct ExecPolicy {
  /// Worker threads sharding lanes, the calling thread included; 0 and
  /// 1 both mean "run inline on the calling thread". Never affects
  /// results.
  std::size_t threads = 1;
  /// Independent RNG lanes; 0 and 1 both mean the legacy single stream.
  /// Part of the deterministic result identity (see header comment).
  std::size_t lanes = 1;

  [[nodiscard]] constexpr std::size_t effective_threads() const noexcept {
    return threads == 0 ? 1 : threads;
  }
  [[nodiscard]] constexpr std::size_t effective_lanes() const noexcept {
    return lanes == 0 ? 1 : lanes;
  }
};

}  // namespace sci::stats
