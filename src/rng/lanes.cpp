#include "rng/lanes.hpp"

#include "rng/distributions.hpp"

namespace sci::rng {

namespace {

/// One lane's draws with the generator held in registers for the whole
/// run (copy in, copy out) instead of round-tripping state_ through
/// memory on every draw.
template <bool kHasMap>
void fill_one(Xoshiro256& gen, std::uint64_t bound, std::size_t count,
              const std::uint32_t* map, std::uint32_t* out) noexcept {
  Xoshiro256 local = gen;
  for (std::size_t i = 0; i < count; ++i) {
    const auto draw = static_cast<std::uint32_t>(uniform_below(local, bound));
    out[i] = kHasMap ? map[draw] : draw;
  }
  gen = local;
}

}  // namespace

void LaneRng::reset(std::uint64_t seed, std::size_t lanes) {
  gens_.clear();
  gens_.reserve(lanes);
  Xoshiro256 gen(seed);
  for (std::size_t l = 0; l < lanes; ++l) gens_.push_back(gen.split());
}

void LaneRng::fill_indices(std::uint64_t bound, std::size_t count, std::size_t first,
                           std::size_t active, const std::uint32_t* map, std::uint32_t* out,
                           std::size_t stride) noexcept {
  // One lane at a time, each with its generator in registers. Measured
  // against 2-/4-wide software-interleaved variants: a single xoshiro
  // chain already runs at its ~5-cycle dependency-latency floor
  // (~1.4 ns/draw here), while four interleaved 256-bit states spill to
  // the stack and come out 30-170% slower per draw. The ILP that does
  // pay lives downstream, in the consumers that read several filled
  // rows at once (kahan_mean_rows).
  if (map != nullptr) {
    for (std::size_t l = 0; l < active; ++l)
      fill_one<true>(gens_[first + l], bound, count, map, out + l * stride);
  } else {
    for (std::size_t l = 0; l < active; ++l)
      fill_one<false>(gens_[first + l], bound, count, map, out + l * stride);
  }
}

}  // namespace sci::rng
