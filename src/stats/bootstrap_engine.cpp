#include "stats/bootstrap_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "stats/bootstrap_detail.hpp"
#include "stats/histogram_select.hpp"

namespace sci::stats {

namespace {

/// Replicates per index tile: the mean's eight interleaved Kahan chains
/// (measured against 4 and 16 chains, bench/RESULTS_stats_parallel.md).
constexpr std::size_t kTileRows = 8;

/// K independent Kahan mean chains over the consecutive index rows
/// idx[j*n, (j+1)*n), j in [0, K): out[j] is the mean of xs[idx] over
/// row j, summed in draw order -- the exact op sequence arithmetic_mean
/// performs on a materialized resample. Chains never mix, so K changes
/// no bit of any row's result; it only lets the chains' add latencies
/// overlap. Full tiles run K = kTileRows, a lane block's last rows
/// K = 1.
template <std::size_t K>
void kahan_mean_rows(const double* xs, const std::uint32_t* idx, std::size_t n,
                     double* out) noexcept {
  double sum[K] = {};
  double comp[K] = {};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < K; ++j) {
      const double y = xs[idx[j * n + i]] - comp[j];
      const double t = sum[j] + y;
      comp[j] = (t - sum[j]) - y;
      sum[j] = t;
    }
  }
  for (std::size_t j = 0; j < K; ++j) out[j] = sum[j] / static_cast<double>(n);
}

}  // namespace

void BootstrapEngine::distribution(std::span<const double> xs, const ResampleStat& stat,
                                   std::size_t replicates, std::uint64_t seed,
                                   std::vector<double>& out) {
  detail::require_valid(xs, replicates);
  if (xs.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("BootstrapEngine: n exceeds u32 index range");

  const std::size_t n = xs.size();
  rng_.reset(seed, lanes_);
  out.resize(replicates);

  const std::uint32_t* map = nullptr;
  if (stat.kind() == ResampleStat::Kind::kQuantile) {
    detail::rank_into(xs, sorted_, rank_, order_);
    plan_ = make_quantile_plan(n, stat.prob(), stat.method());
    counts_.resize(n);
    map = rank_.data();
  } else if (stat.kind() == ResampleStat::Kind::kCustom) {
    resample_.resize(n);
  }
  idx_.resize(kTileRows * n);

  // Lane blocks are contiguous and in lane order, so the output is
  // written front to back; a tile's rows are consecutive draws of one
  // lane's stream.
  const std::size_t base = replicates / lanes_;
  const std::size_t rem = replicates % lanes_;
  double* dst = out.data();
  for (std::size_t l = 0; l < lanes_; ++l) {
    const std::size_t len = base + (l < rem ? 1 : 0);
    for (std::size_t done = 0; done < len; done += kTileRows) {
      const std::size_t rows = std::min(kTileRows, len - done);
      rng_.fill_indices(n, rows * n, l, 1, map, idx_.data(), rows * n);
      evaluate_rows(xs, stat, rows, dst);
      dst += rows;
    }
  }
}

void BootstrapEngine::evaluate_rows(std::span<const double> xs, const ResampleStat& stat,
                                    std::size_t rows, double* out) {
  const std::size_t n = xs.size();
  switch (stat.kind()) {
    case ResampleStat::Kind::kMean:
      if (rows == kTileRows) {
        kahan_mean_rows<kTileRows>(xs.data(), idx_.data(), n, out);
      } else {
        for (std::size_t r = 0; r < rows; ++r)
          kahan_mean_rows<1>(xs.data(), idx_.data() + r * n, n, out + r);
      }
      break;
    case ResampleStat::Kind::kQuantile:
      for (std::size_t r = 0; r < rows; ++r) {
        out[r] = histogram_select_quantile(
            std::span<const std::uint32_t>(idx_.data() + r * n, n), sorted_, counts_, plan_);
      }
      break;
    case ResampleStat::Kind::kCustom:
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint32_t* row = idx_.data() + r * n;
        for (std::size_t i = 0; i < n; ++i) resample_[i] = xs[row[i]];
        out[r] = stat.evaluate(resample_);
      }
      break;
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

  // Leave-one-out influence values.
  const std::size_t n = xs.size();
  jack_.resize(n);
  switch (stat.kind()) {
    case ResampleStat::Kind::kMean:
      detail::jackknife_mean(xs, jack_);
      break;
    case ResampleStat::Kind::kQuantile:
      // distribution() just ranked this exact sample; sorted_/rank_ are
      // still current, so each value is an index shift, not a sort.
      for (std::size_t i = 0; i < n; ++i)
        jack_[i] = detail::loo_quantile(sorted_, rank_[i], stat.prob(), stat.method());
      break;
    case ResampleStat::Kind::kCustom: {
      // Opaque callable: materialize each loo vector in the resample
      // row. Element order matches the legacy push_back loop.
      const std::span<const double> loo(resample_.data(), n - 1);
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t k = 0;
        for (std::size_t j = 0; j < n; ++j)
          if (j != i) resample_[k++] = xs[j];
        jack_[i] = stat.evaluate(loo);
      }
      break;
    }
  }
  return detail::bca_interval(dist_, theta_hat, jack_, confidence);
}

std::vector<double> bootstrap_distribution(std::span<const double> xs,
                                           const ResampleStat& statistic,
                                           std::size_t replicates, std::uint64_t seed,
                                           std::size_t lanes) {
  BootstrapEngine engine(lanes);
  std::vector<double> out;
  engine.distribution(xs, statistic, replicates, seed, out);
  return out;
}

Interval bootstrap_percentile_ci(std::span<const double> xs, const ResampleStat& statistic,
                                 std::size_t replicates, double confidence,
                                 std::uint64_t seed, std::size_t lanes) {
  BootstrapEngine engine(lanes);
  return engine.percentile_ci(xs, statistic, replicates, confidence, seed);
}

Interval bootstrap_bca_ci(std::span<const double> xs, const ResampleStat& statistic,
                          std::size_t replicates, double confidence, std::uint64_t seed,
                          std::size_t lanes) {
  BootstrapEngine engine(lanes);
  return engine.bca_ci(xs, statistic, replicates, confidence, seed);
}

}  // namespace sci::stats
