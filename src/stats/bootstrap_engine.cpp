#include "stats/bootstrap_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "rng/xoshiro.hpp"
#include "stats/bootstrap_detail.hpp"
#include "stats/histogram_select.hpp"
#include "stats/parallel.hpp"
#include "threads/team.hpp"

namespace sci::stats {

namespace {

/// Kahan-sums one index row in draw order -- the exact op sequence
/// arithmetic_mean performs on a materialized resample. Remainder lanes
/// of a wave (< 4) take this path; full tiles go through the dispatched
/// 4-wide kernel (simd_dispatch.hpp), which runs the same chain per row.
double kahan_mean_row(const double* xs, const std::uint32_t* idx, std::size_t n) noexcept {
  double sum = 0.0, comp = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = xs[idx[i]];
    const double y = x - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum / static_cast<double>(n);
}

// AVX2 gathers use signed i32 indices, so the dispatched table requires
// every rank < 2^31; larger samples (never seen in practice) pin the
// scalar table, which has no such precondition.
constexpr std::size_t kGatherIndexLimit = std::size_t{1} << 31;

}  // namespace

BootstrapEngine::BootstrapEngine(ExecPolicy policy) {
  policy_.threads = policy.effective_threads();
  policy_.lanes = policy.effective_lanes();
  lane_workers_ = std::min(policy_.threads, policy_.lanes);
  // The team spans all threads (the jackknife shards sample indices, not
  // lanes); lane fan-out uses the first lane_workers_ workers and keeps
  // the exact lane partition of a min(threads, lanes)-sized team, so
  // thread counts beyond lanes still never change bytes.
  team_ = shared_team(policy_.threads);
  // Each captures a single pointer (fits the std::function SBO) and is
  // built once here, so team fan-out never allocates in steady state.
  region_ = [this](std::size_t worker) {
    if (worker >= lane_workers_) return;
    const std::size_t lanes = policy_.lanes;
    process_lanes(worker, worker * lanes / lane_workers_,
                  (worker + 1) * lanes / lane_workers_);
  };
  jack_region_ = [this](std::size_t worker) {
    const std::size_t n = xs_.size();
    const std::size_t threads = policy_.threads;
    jackknife_range(worker, worker * n / threads, (worker + 1) * n / threads);
  };
}

BootstrapEngine::~BootstrapEngine() = default;

void BootstrapEngine::distribution(std::span<const double> xs, const ResampleStat& stat,
                                   std::size_t replicates, std::uint64_t seed,
                                   std::vector<double>& out) {
  detail::require_valid(xs, replicates);
  if (xs.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("BootstrapEngine: n exceeds u32 index range");

  const std::size_t n = xs.size();
  const std::size_t lanes = policy_.lanes;
  rng_.reset(seed, lanes);
  out.resize(replicates);

  xs_ = xs;
  stat_ = &stat;
  out_ = out.data();
  base_ = replicates / lanes;
  rem_ = replicates % lanes;

  kernels_ = (n < kGatherIndexLimit) ? &simd::dispatch() : &simd::scalar_kernels();
  if (stat.kind() == ResampleStat::Kind::kQuantile) {
    detail::rank_into(xs, sorted_, rank_, order_);
    plan_ = make_quantile_plan(n, stat.prob(), stat.method());
    counts_.resize(lane_workers_ * n);
  } else if (stat.kind() == ResampleStat::Kind::kCustom) {
    resample_.resize(lanes * n);
  }
  idx_.resize(lanes * n);

  if (lane_workers_ <= 1) {
    // One lane worker: do not wake a larger team (threads > 1, lanes = 1).
    process_lanes(0, 0, lanes);
  } else {
    team_->run(region_);
  }
  stat_ = nullptr;
  out_ = nullptr;
}

void BootstrapEngine::process_lanes(std::size_t worker, std::size_t lane_lo,
                                    std::size_t lane_hi) {
  if (lane_hi <= lane_lo) return;
  const std::size_t n = xs_.size();
  const ResampleStat& stat = *stat_;
  const simd::Kernels& kernels = *kernels_;
  const std::uint32_t* map =
      stat.kind() == ResampleStat::Kind::kQuantile ? rank_.data() : nullptr;
  const std::size_t waves = base_ + (rem_ > 0 ? 1 : 0);

  // Lane block lengths are non-increasing, so the lanes still active in
  // wave w form a prefix of [lane_lo, lane_hi).
  for (std::size_t w = 0; w < waves; ++w) {
    const std::size_t hi_active = (w < base_) ? lane_hi : std::min(lane_hi, rem_);
    if (hi_active <= lane_lo) break;
    const std::size_t active = hi_active - lane_lo;
    std::uint32_t* rows = idx_.data() + lane_lo * n;
    rng_.fill_indices(n, n, lane_lo, active, map, rows, n);

    switch (stat.kind()) {
      case ResampleStat::Kind::kMean: {
        std::size_t l = 0;
        double tile[4];
        for (; l + 4 <= active; l += 4) {
          kernels.mean_rows4(xs_.data(), rows + l * n, n, n, tile);
          for (std::size_t j = 0; j < 4; ++j)
            out_[block_start(lane_lo + l + j) + w] = tile[j];
        }
        for (; l < active; ++l)
          out_[block_start(lane_lo + l) + w] = kahan_mean_row(xs_.data(), rows + l * n, n);
        break;
      }
      case ResampleStat::Kind::kQuantile: {
        const std::span<std::uint32_t> counts(counts_.data() + worker * n, n);
        for (std::size_t l = 0; l < active; ++l) {
          out_[block_start(lane_lo + l) + w] = histogram_select_quantile(
              std::span<const std::uint32_t>(rows + l * n, n), sorted_, counts, plan_,
              kernels);
        }
        break;
      }
      case ResampleStat::Kind::kCustom: {
        for (std::size_t l = 0; l < active; ++l) {
          double* res = resample_.data() + (lane_lo + l) * n;
          const std::uint32_t* row = rows + l * n;
          for (std::size_t i = 0; i < n; ++i) res[i] = xs_[row[i]];
          out_[block_start(lane_lo + l) + w] = stat.evaluate(std::span(res, n));
        }
        break;
      }
    }
  }
}

Interval BootstrapEngine::percentile_ci(std::span<const double> xs, const ResampleStat& stat,
                                        std::size_t replicates, double confidence,
                                        std::uint64_t seed) {
  distribution(xs, stat, replicates, seed, dist_);
  std::sort(dist_.begin(), dist_.end());
  const double alpha = 1.0 - confidence;
  return {quantile_sorted(dist_, alpha / 2.0), quantile_sorted(dist_, 1.0 - alpha / 2.0),
          confidence};
}

Interval BootstrapEngine::bca_ci(std::span<const double> xs, const ResampleStat& stat,
                                 std::size_t replicates, double confidence,
                                 std::uint64_t seed) {
  distribution(xs, stat, replicates, seed, dist_);
  std::sort(dist_.begin(), dist_.end());
  const double theta_hat = stat.evaluate(xs);

  // Leave-one-out influence values, sharded across the team in static
  // per-index blocks. jack[i] depends only on (xs, stat, i), so the
  // sharding is pure scheduling: any thread count produces the bytes
  // the serial loop does.
  const std::size_t n = xs.size();
  jack_.resize(n);
  xs_ = xs;
  stat_ = &stat;
  if (stat.kind() == ResampleStat::Kind::kQuantile) {
    // distribution() just ranked this exact sample; sorted_/rank_ are
    // still current, so the O(n log n) prep is not repeated.
  } else if (stat.kind() == ResampleStat::Kind::kCustom) {
    jack_loo_.resize(policy_.threads * (n - 1));
  }
  team_->run(jack_region_);
  stat_ = nullptr;
  return detail::bca_interval(dist_, theta_hat, jack_, confidence);
}

void BootstrapEngine::jackknife_range(std::size_t worker, std::size_t lo, std::size_t hi) {
  if (hi <= lo) return;
  const std::size_t n = xs_.size();
  switch (stat_->kind()) {
    case ResampleStat::Kind::kMean:
      detail::jackknife_mean_range(xs_, jack_.data(), lo, hi);
      break;
    case ResampleStat::Kind::kQuantile:
      detail::jackknife_quantile_range(sorted_, rank_.data(), stat_->prob(),
                                       stat_->method(), jack_.data(), lo, hi);
      break;
    case ResampleStat::Kind::kCustom: {
      // Opaque callable: materialize each loo vector in worker-local
      // scratch. Element order matches the legacy push_back loop.
      double* loo = jack_loo_.data() + worker * (n - 1);
      for (std::size_t i = lo; i < hi; ++i) {
        std::size_t k = 0;
        for (std::size_t j = 0; j < n; ++j)
          if (j != i) loo[k++] = xs_[j];
        jack_[i] = stat_->evaluate(std::span<const double>(loo, n - 1));
      }
      break;
    }
  }
}

std::vector<double> bootstrap_distribution(std::span<const double> xs,
                                           const ResampleStat& statistic,
                                           std::size_t replicates, std::uint64_t seed,
                                           const ExecPolicy& policy) {
  BootstrapEngine engine(policy);
  std::vector<double> out;
  engine.distribution(xs, statistic, replicates, seed, out);
  return out;
}

Interval bootstrap_percentile_ci(std::span<const double> xs, const ResampleStat& statistic,
                                 std::size_t replicates, double confidence,
                                 std::uint64_t seed, const ExecPolicy& policy) {
  BootstrapEngine engine(policy);
  return engine.percentile_ci(xs, statistic, replicates, confidence, seed);
}

Interval bootstrap_bca_ci(std::span<const double> xs, const ResampleStat& statistic,
                          std::size_t replicates, double confidence, std::uint64_t seed,
                          const ExecPolicy& policy) {
  BootstrapEngine engine(policy);
  return engine.bca_ci(xs, statistic, replicates, confidence, seed);
}

std::vector<Interval> grouped_bootstrap_percentile_ci(
    std::span<const std::span<const double>> groups, const ResampleStat& statistic,
    std::size_t replicates, double confidence, std::uint64_t seed,
    const ExecPolicy& policy) {
  std::vector<Interval> out(groups.size());
  policy_partition(policy, groups.size(),
                   [&](std::size_t, std::size_t lo, std::size_t hi) {
                     BootstrapEngine engine(ExecPolicy{1, policy.effective_lanes()});
                     for (std::size_t g = lo; g < hi; ++g) {
                       std::uint64_t state = seed + g;
                       out[g] = engine.percentile_ci(groups[g], statistic, replicates,
                                                     confidence,
                                                     rng::splitmix64_next(state));
                     }
                   });
  return out;
}

}  // namespace sci::stats
