// Discrete-event simulation engine.
//
// This is the substrate standing in for the paper's physical testbeds
// (Piz Daint / Piz Dora / Pilatus, cf. DESIGN.md): rank programs run as
// C++20 coroutines whose awaits translate into timestamped events. Time
// is simulated seconds; execution is single-threaded and deterministic
// for a fixed seed, which makes every "measurement" taken inside the
// simulator exactly reproducible -- the property the paper wishes real
// machines had.
//
// The hot path is allocation-free in steady state: callbacks live in
// sim::InlineCallback's inline buffer (no per-event std::function heap
// node) and events are pooled in EventQueue's arena (no per-event queue
// node). See DESIGN.md "Hot path & allocation discipline".
#pragma once

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "sim/callback.hpp"
#include "sim/event_queue.hpp"

namespace sci::sim {

/// Event-driven scheduler. Events at equal times fire in insertion order
/// (a strict tiebreaker keeps runs deterministic).
class Engine {
 public:
  using Callback = InlineCallback;

  /// Schedules `fn` at absolute simulated time `time` (>= now()). A
  /// forwarding template so the callable is type-erased exactly once,
  /// directly into the event arena (no intermediate Callback move).
  template <typename F, typename = std::enable_if_t<std::is_invocable_r_v<
                            void, std::remove_reference_t<F>&>>>
  void schedule_at(double time, F&& fn) {
    if (time < now_) throw std::logic_error("Engine::schedule_at: time in the past");
    queue_.push(time, next_seq_++, std::forward<F>(fn));
    if (queue_.size() > queue_hwm_) queue_hwm_ = queue_.size();
  }

  /// Schedules `fn` after a relative delay (>= 0).
  template <typename F, typename = std::enable_if_t<std::is_invocable_r_v<
                            void, std::remove_reference_t<F>&>>>
  void schedule_after(double delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Runs until the event queue drains or stop() is called.
  /// Returns the number of events processed.
  std::size_t run();

  void stop() noexcept { stopped_ = true; }

  /// Returns the engine to its just-constructed state -- time 0,
  /// sequence 0, gauges zeroed -- while the event arena keeps its
  /// chunks and the heap its capacity. Reusing one engine across
  /// replications is therefore seed-for-seed indistinguishable from
  /// constructing a fresh one, minus the allocations.
  void reset() noexcept {
    queue_.reset();
    now_ = 0.0;
    next_seq_ = 0;
    stopped_ = false;
    queue_hwm_ = 0;
    dispatched_ = 0;
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Deepest the event queue has ever been (observability gauge).
  [[nodiscard]] std::size_t queue_high_water() const noexcept { return queue_hwm_; }
  /// Events dispatched over this engine's lifetime.
  [[nodiscard]] std::uint64_t events_dispatched() const noexcept { return dispatched_; }
  /// Pooled event slots ever allocated (== queue high water once warm).
  [[nodiscard]] std::size_t arena_slots() const noexcept { return queue_.arena_slots(); }

 private:
  void flush_observability(std::size_t processed, double run_start);

  EventQueue queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
  std::size_t queue_hwm_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace sci::sim
