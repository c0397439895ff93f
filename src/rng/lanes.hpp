// Multi-lane xoshiro256++: L independent streams derived from one seed.
//
// Lane l is Xoshiro256(seed) advanced by l jump() calls (2^128 steps
// each, via the precomputed byte-basis table), so lane 0 is exactly the
// legacy single-stream generator and the streams are provably disjoint
// for any realistic draw count. Batch fills write one row per lane;
// consumers that want instruction-level parallelism read several filled
// rows at once (the bootstrap engine's kahan_mean_rows sums eight
// consecutive rows of one lane) -- the fill itself stays
// one-lane-at-a-time because a single xoshiro chain already runs at its
// dependency-latency floor (see fill_indices).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rng/xoshiro.hpp"

namespace sci::rng {

class LaneRng {
 public:
  LaneRng() = default;

  /// Rebuilds the lane set: lane l = Xoshiro256(seed) jumped l times.
  /// Alloc-free once `lanes` has been seen (capacity is kept).
  void reset(std::uint64_t seed, std::size_t lanes);

  [[nodiscard]] std::size_t lanes() const noexcept { return gens_.size(); }
  [[nodiscard]] Xoshiro256& lane(std::size_t l) noexcept { return gens_[l]; }
  [[nodiscard]] const Xoshiro256& lane(std::size_t l) const noexcept { return gens_[l]; }

  /// For each lane l in [first, first + active): appends `count` draws of
  /// uniform_below(lane, bound) to out + (l - first) * stride, mapped
  /// through `map` when non-null (out[k] = map[draw]). Each lane consumes
  /// exactly the draws uniform_below would -- rejection redraws included
  /// -- so per-lane sequences are bit-identical to scalar use of the same
  /// generator. Requires bound <= UINT32_MAX.
  void fill_indices(std::uint64_t bound, std::size_t count, std::size_t first,
                    std::size_t active, const std::uint32_t* map, std::uint32_t* out,
                    std::size_t stride) noexcept;

 private:
  std::vector<Xoshiro256> gens_;
};

}  // namespace sci::rng
