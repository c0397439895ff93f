// The bootstrap engine: multi-lane resampling on the calling thread,
// with an alloc-free steady state.
//
// Replicates are partitioned into contiguous per-lane blocks (lane l
// gets replicates [l*base + min(l, rem), ...) with base = R/L, rem =
// R%L) and lane l draws from Xoshiro256(seed) jumped l times, so for a
// fixed (data, statistic, replicates, seed, lanes) the output vector is
// one byte sequence -- and with lanes = 1 it is the single stream the
// bootstrap.hpp entry points run by default. Lanes are walked in order,
// and each lane's index rows are drawn a tile of eight replicates at a
// time, so the mean's eight Kahan chains run interleaved. The tiling
// never changes a draw or an evaluation order.
//
// Every quantile replicate is answered by histogram rank selection
// (histogram_select.hpp) over the resampled ranks.
//
// All scratch (sorted sample, rank permutation, index rows, rank
// histogram, resample row, distribution buffer) lives in reusable
// member buffers: after a warm-up call of each shape, distribution()
// and the CI entry points perform zero allocator calls for
// mean/quantile statistics (bench_stats_parallel audits this with an
// operator-new counter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/lanes.hpp"
#include "stats/bootstrap.hpp"
#include "stats/selection.hpp"

namespace sci::stats {

class BootstrapEngine {
 public:
  /// `lanes` RNG streams; 0 and 1 both mean the single stream.
  explicit BootstrapEngine(std::size_t lanes = 1) : lanes_(lanes == 0 ? 1 : lanes) {}

  /// Bootstrap distribution of `stat` into `out` (resized to
  /// `replicates`).
  void distribution(std::span<const double> xs, const ResampleStat& stat,
                    std::size_t replicates, std::uint64_t seed, std::vector<double>& out);

  /// Percentile CI from the engine's distribution (internal buffer).
  [[nodiscard]] Interval percentile_ci(std::span<const double> xs, const ResampleStat& stat,
                                       std::size_t replicates = 1000,
                                       double confidence = 0.95,
                                       std::uint64_t seed = 0xb00f);

  /// BCa CI; the leave-one-out jackknife runs after the distribution.
  [[nodiscard]] Interval bca_ci(std::span<const double> xs, const ResampleStat& stat,
                                std::size_t replicates = 1000, double confidence = 0.95,
                                std::uint64_t seed = 0xb00f);

 private:
  /// Evaluates `rows` filled index rows of idx_ into out[0, rows).
  void evaluate_rows(std::span<const double> xs, const ResampleStat& stat, std::size_t rows,
                     double* out);

  std::size_t lanes_;
  rng::LaneRng rng_;
  QuantilePlan plan_;  // kQuantile jobs

  // Reusable scratch.
  std::vector<double> sorted_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> idx_;     // one tile of index/rank rows
  std::vector<double> resample_;       // one row (kCustom only)
  std::vector<std::uint32_t> counts_;  // rank histogram (kQuantile only)
  std::vector<double> dist_;           // CI entry points
  std::vector<double> jack_;           // bca_ci
};

}  // namespace sci::stats
