// Multi-lane, thread-sharded bootstrap with an alloc-free steady state.
//
// Replicates are partitioned into contiguous per-lane blocks (lane l
// gets replicates [l*base + min(l, rem), ...) with base = R/L, rem =
// R%L) and lane l draws from Xoshiro256(seed) jumped l times. Threads
// shard whole lanes, so for a fixed (data, statistic, replicates, seed,
// lanes) the output vector is byte-identical at any thread count -- and
// with lanes = 1 it is the single stream the bootstrap.hpp entry points
// run at their default policy. Within a thread, lanes are processed in
// waves of up to four: the index rows are filled lane by lane, then
// consumed together (4-wide interleaved Kahan accumulation for the
// mean). The wave tiling is pure instruction scheduling; it never
// changes any per-lane draw or evaluation order.
//
// Hot kernels come from stats::simd::dispatch() (simd_dispatch.hpp):
// AVX2 on hosts that have it, scalar elsewhere, bit-identical either
// way. Every quantile replicate is answered by histogram rank
// selection (histogram_select.hpp) over the resampled ranks.
//
// All scratch (sorted sample, rank permutation, index rows, rank
// histograms, resample rows, distribution buffer) lives in reusable
// member buffers: after a warm-up call of each shape, distribution()
// and the CI entry points perform zero allocator calls for
// mean/quantile statistics (bench_stats_parallel audits this with an
// operator-new counter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "rng/lanes.hpp"
#include "stats/bootstrap.hpp"
#include "stats/exec_policy.hpp"
#include "stats/selection.hpp"
#include "stats/simd_dispatch.hpp"

namespace sci::threads {
class ThreadTeam;
}

namespace sci::stats {

class BootstrapEngine {
 public:
  explicit BootstrapEngine(ExecPolicy policy = {});
  ~BootstrapEngine();

  BootstrapEngine(const BootstrapEngine&) = delete;
  BootstrapEngine& operator=(const BootstrapEngine&) = delete;

  [[nodiscard]] const ExecPolicy& policy() const noexcept { return policy_; }

  /// Bootstrap distribution of `stat` into `out` (resized to
  /// `replicates`). For kCustom statistics with threads > 1 the callable
  /// is invoked concurrently and must be thread-safe; mean/quantile
  /// kinds never call out.
  void distribution(std::span<const double> xs, const ResampleStat& stat,
                    std::size_t replicates, std::uint64_t seed, std::vector<double>& out);

  /// Percentile CI from the engine's distribution (internal buffer).
  [[nodiscard]] Interval percentile_ci(std::span<const double> xs, const ResampleStat& stat,
                                       std::size_t replicates = 1000,
                                       double confidence = 0.95,
                                       std::uint64_t seed = 0xb00f);

  /// BCa CI. The leave-one-out jackknife is sharded across the thread
  /// team in deterministic per-index blocks (jack[i] depends only on i,
  /// so bytes never depend on thread count). For kCustom with
  /// threads > 1 the callable is invoked concurrently here too.
  [[nodiscard]] Interval bca_ci(std::span<const double> xs, const ResampleStat& stat,
                                std::size_t replicates = 1000, double confidence = 0.95,
                                std::uint64_t seed = 0xb00f);

 private:
  void process_lanes(std::size_t worker, std::size_t lane_lo, std::size_t lane_hi);
  void jackknife_range(std::size_t worker, std::size_t lo, std::size_t hi);
  [[nodiscard]] std::size_t block_start(std::size_t lane) const noexcept {
    return lane * base_ + std::min(lane, rem_);
  }

  ExecPolicy policy_;                            // normalized (no zeros)
  std::size_t lane_workers_ = 1;                 // min(threads, lanes)
  std::shared_ptr<threads::ThreadTeam> team_;
  std::function<void(std::size_t)> region_;      // preconstructed: captures only `this`
  std::function<void(std::size_t)> jack_region_; // ditto, for the jackknife
  rng::LaneRng rng_;

  // Job state for the active distribution() call (set before fan-out).
  std::span<const double> xs_;
  const ResampleStat* stat_ = nullptr;
  double* out_ = nullptr;
  std::size_t base_ = 0;  // replicates / lanes
  std::size_t rem_ = 0;   // replicates % lanes
  const simd::Kernels* kernels_ = nullptr;  // picked once per job
  QuantilePlan plan_;                       // kQuantile jobs

  // Reusable scratch.
  std::vector<double> sorted_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> idx_;      // lanes x n index/rank rows
  std::vector<double> resample_;        // lanes x n rows (kCustom only)
  std::vector<std::uint32_t> counts_;   // lane_workers x n histograms (kQuantile)
  std::vector<double> dist_;            // CI entry points
  std::vector<double> jack_;            // bca_ci
  std::vector<double> jack_loo_;        // bca_ci, kCustom: threads x (n-1)
};

/// Per-group percentile CIs with group-level thread fan-out (each group
/// runs a serial engine with `policy.lanes` lanes; group g's stream seed
/// is splitmix64(seed + g), so results are independent of both thread
/// count and group order).
[[nodiscard]] std::vector<Interval> grouped_bootstrap_percentile_ci(
    std::span<const std::span<const double>> groups, const ResampleStat& statistic,
    std::size_t replicates = 1000, double confidence = 0.95, std::uint64_t seed = 0xb00f,
    const ExecPolicy& policy = {});

}  // namespace sci::stats
