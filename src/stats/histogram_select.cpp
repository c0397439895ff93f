#include "stats/histogram_select.hpp"

#include <cstring>

namespace sci::stats {

namespace {

/// counts[0..bins) = multiplicity of each value in row[0..m).
void histogram_fill(const std::uint32_t* row, std::size_t m, std::uint32_t* counts,
                    std::size_t bins) noexcept {
  std::memset(counts, 0, bins * sizeof(std::uint32_t));
  // Unrolled by four so the (rare, random-rank) same-bin store-to-load
  // stalls overlap.
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    ++counts[row[i]];
    ++counts[row[i + 1]];
    ++counts[row[i + 2]];
    ++counts[row[i + 3]];
  }
  for (; i < m; ++i) ++counts[row[i]];
}

/// Bin of the k-th smallest element of the multiset `counts` encodes,
/// with `cum` left at the number of elements in the bins below it.
/// Requires k < total count.
std::size_t rank_select(const std::uint32_t* counts, std::size_t bins, std::size_t k,
                        std::size_t& cum) noexcept {
  // Skip whole blocks of eight bins first: eight independent adds and
  // one branch per block instead of a branch per bin (1.08x on the
  // median CI, bench/RESULTS_stats_parallel.md). A block's sum fits u32
  // because the counts total the row's draws; the counts are exact, so
  // the bin found is the one a bin-by-bin walk finds.
  std::size_t b = 0;
  cum = 0;
  for (; b + 8 <= bins; b += 8) {
    std::uint32_t block = 0;
    for (std::size_t j = 0; j < 8; ++j) block += counts[b + j];
    if (cum + block > k) break;
    cum += block;
  }
  while (cum + counts[b] <= k) cum += counts[b++];
  return b;
}

/// k-th and (k+1)-th smallest in one walk. Requires k + 1 < total.
SelectedPair rank_select_pair(const std::uint32_t* counts, std::size_t bins,
                              std::size_t k) noexcept {
  std::size_t cum = 0;
  const std::size_t b = rank_select(counts, bins, k, cum);
  SelectedPair out;
  out.kth = static_cast<std::uint32_t>(b);
  if (cum + counts[b] > k + 1) {  // the (k+1)-th lives in the same bin
    out.next = out.kth;
    return out;
  }
  std::size_t nb = b + 1;
  while (nb < bins && counts[nb] == 0) ++nb;
  // Caller guarantees k + 1 < total count, so a populated bin exists.
  out.next = static_cast<std::uint32_t>(nb);
  return out;
}

}  // namespace

double histogram_select_quantile(std::span<const std::uint32_t> row,
                                 std::span<const double> sorted,
                                 std::span<std::uint32_t> counts,
                                 const QuantilePlan& plan) noexcept {
  const std::size_t m = row.size();
  // Extremes need no histogram at all: a straight min/max scan of the
  // draws.
  if (plan.mode == QuantilePlan::Mode::kMin) return sorted[min_of(row.data(), m)];
  if (plan.mode == QuantilePlan::Mode::kMax) return sorted[max_of(row.data(), m)];

  histogram_fill(row.data(), m, counts.data(), counts.size());
  if (plan.mode == QuantilePlan::Mode::kSingle) {
    std::size_t cum = 0;
    return sorted[rank_select(counts.data(), counts.size(), plan.k, cum)];
  }
  const SelectedPair pair = rank_select_pair(counts.data(), counts.size(), plan.k);
  const double a_val = sorted[pair.kth];
  const double b_val = sorted[pair.next];
  return a_val + plan.frac * (b_val - a_val);
}

}  // namespace sci::stats
