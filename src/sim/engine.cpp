#include "sim/engine.hpp"

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace sci::sim {

std::size_t Engine::run() {
  // A stopped engine restarts cleanly on the next run: stop() only ends
  // the run it interrupts.
  stopped_ = false;
  std::size_t processed = 0;
  const double run_start = now_;
  // The sink check is hoisted out of the loop (one thread-local load per
  // run, not per event); a sink attached mid-run is picked up by the
  // next run, which is when measurement scopes attach anyway.
  SCI_TRACE_SINK_HOIST(trace_sink);
  while (!queue_.empty() && !stopped_) {
    now_ = queue_.top().time;
    // The node leaves the heap first, then the callback runs in place in
    // its (stable) arena slot: no copy out, and the slot is recycled the
    // moment the callback returns.
    const std::uint32_t slot = queue_.pop_slot();
    SCI_TRACE_SINK_COUNTER(trace_sink, obs::kEngineTrack, "queue_depth", now_,
                           static_cast<double>(queue_.size()));
    queue_.invoke_and_release(slot);
    ++processed;
  }
  dispatched_ += processed;
  flush_observability(processed, run_start);
  return processed;
}

void Engine::flush_observability(std::size_t processed, double run_start) {
  if (processed == 0) return;
  // Counter updates happen once per run, not per event, so the hot loop
  // stays branch-free with respect to the registry.
  static obs::Counter& events = obs::counter(obs::keys::kEngineEvents);
  static obs::Counter& hwm = obs::counter(obs::keys::kEngineQueueHwm);
  static obs::Counter& arena = obs::counter(obs::keys::kEngineArenaSlots);
  events.add(processed);
  hwm.set_max(queue_hwm_);
  arena.set_max(queue_.arena_slots());
  SCI_TRACE_COMPLETE(obs::kEngineTrack, "run", "engine", run_start, now_ - run_start,
                     {{"events", static_cast<double>(processed)}});
}

}  // namespace sci::sim
