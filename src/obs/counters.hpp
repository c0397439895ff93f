// sci::obs counters: a process-wide registry of named monotonic
// counters and high-water gauges. This is the "software PAPI" face of
// the observability layer (Section 6 lists counter access beside
// timers): the simulator's exact message/byte/noise tallies and the
// harness's own bookkeeping cost are first-class, queryable quantities,
// so every report can state what its production cost (Rule 9).
//
// Counters are relaxed atomics: increments from the single-threaded
// simulator are branch-plus-add cheap, and the threads/ layer can bump
// them without races. Registration (name -> slot) takes a mutex once;
// hot sites cache the returned reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sci::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// High-water gauge update: value = max(value, x).
  void set_max(std::uint64_t x) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < x && !value_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Name -> value pairs, sorted by name (deterministic iteration).
using CounterSnapshot = std::vector<std::pair<std::string, std::uint64_t>>;

class CounterRegistry {
 public:
  static CounterRegistry& instance();

  /// Returns the counter registered under `name`, creating it on first
  /// use. The reference stays valid for the process lifetime.
  Counter& get(std::string_view name);

  [[nodiscard]] CounterSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
};

/// Shorthand: obs::counter("net.messages").add(n). Hot paths should
/// cache the reference in a local static.
inline Counter& counter(std::string_view name) { return CounterRegistry::instance().get(name); }

/// Value of `name` in a snapshot; 0 when absent.
[[nodiscard]] std::uint64_t snapshot_value(const CounterSnapshot& snap, std::string_view name);

/// after - before, per name; names only in `after` keep their value,
/// zero-delta entries are dropped.
[[nodiscard]] CounterSnapshot snapshot_delta(const CounterSnapshot& before,
                                             const CounterSnapshot& after);

/// Well-known counter names used by the built-in instrumentation.
namespace keys {
inline constexpr const char* kEngineEvents = "engine.events";        ///< events dispatched
inline constexpr const char* kEngineQueueHwm = "engine.queue_hwm";   ///< queue depth high water
inline constexpr const char* kEngineCallbackHeapAllocs =
    "engine.callback_heap_allocs";  ///< InlineCallback oversize spills (0 = zero-alloc contract)
inline constexpr const char* kCoroFrameHeapAllocs =
    "simmpi.coro_frame_heap_allocs";  ///< coroutine-frame heap allocs (FramePool misses)
inline constexpr const char* kEngineArenaSlots = "engine.arena_slots";  ///< event pool high water
inline constexpr const char* kNetMessages = "net.messages";          ///< messages delivered
inline constexpr const char* kNetBytes = "net.bytes";                ///< payload bytes on the wire
inline constexpr const char* kNoiseDraws = "sim.noise_draws";        ///< perturb() invocations
inline constexpr const char* kNoiseInjectedNs = "sim.noise_injected_ns";  ///< extra ns injected
inline constexpr const char* kFaultDrops = "fault.drops";            ///< lost transfer attempts
inline constexpr const char* kFaultRetransmitNs = "fault.retransmit_ns";  ///< retransmit time
inline constexpr const char* kFaultDegradedTransfers =
    "fault.degraded_transfers";  ///< transfers routed over a degraded link
inline constexpr const char* kFaultStragglerNs =
    "fault.straggler_ns";  ///< extra compute ns injected on straggler nodes
inline constexpr const char* kHarnessSamples = "harness.samples";    ///< adaptive samples taken
inline constexpr const char* kHarnessOverheadNs = "harness.overhead_ns";  ///< bookkeeping time
inline constexpr const char* kCiRecomputes = "harness.ci_recomputes";     ///< CI re-evaluations
}  // namespace keys

}  // namespace sci::obs
