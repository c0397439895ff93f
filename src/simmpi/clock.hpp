// Per-rank clocks. "Most of today's parallel systems are asynchronous
// and do not have a common clock source. Furthermore, clock drift
// between processes could impact measurements" (Section 4.2.1). Each
// simulated rank owns a clock with a fixed offset and a drift in ppm;
// Comm::wtime() reads it, so measurement code experiences exactly the
// skew a real cluster would exhibit.
#pragma once

namespace sci::simmpi {

class LocalClock {
 public:
  LocalClock() = default;
  LocalClock(double offset_s, double drift_ppm)
      : offset_s_(offset_s), rate_(1.0 + drift_ppm * 1e-6) {}

  /// Local reading at global (true) simulated time t.
  [[nodiscard]] double to_local(double global_s) const noexcept {
    return global_s * rate_ + offset_s_;
  }

  /// Global time at which this clock shows `local_s`.
  [[nodiscard]] double to_global(double local_s) const noexcept {
    return (local_s - offset_s_) / rate_;
  }

  [[nodiscard]] double offset() const noexcept { return offset_s_; }

 private:
  double offset_s_ = 0.0;
  double rate_ = 1.0;
};

}  // namespace sci::simmpi
