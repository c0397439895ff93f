// The instruction set the stats kernels run on: always scalar, one
// portable kernel set on every host (bench/RESULTS_stats_parallel.md
// has the measurements). This header stays only so perfbench's host
// line can keep printing `simd_isa`, until a change to perfbench moves
// that probe (ROADMAP, **Order**).
#pragma once

namespace sci::stats::simd {

enum class Isa {
  kScalar = 0,
};

[[nodiscard]] constexpr const char* to_string(Isa /*isa*/) noexcept { return "scalar"; }

[[nodiscard]] constexpr Isa active_isa() noexcept { return Isa::kScalar; }

}  // namespace sci::stats::simd
