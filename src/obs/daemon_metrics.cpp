#include "obs/daemon_metrics.hpp"

#include "obs/json.hpp"

namespace sci::obs {

constexpr auto metrics_fields = [](auto& io, auto& m) {
  io.schema({"scibench.daemon_metrics", DaemonMetrics::kVersion});
  io("jobs_submitted", m.jobs_submitted);
  io("jobs_completed", m.jobs_completed);
  io("jobs_with_failures", m.jobs_with_failures);
  io("jobs_rejected", m.jobs_rejected);
  io("queue_peak", m.queue_peak);
  io("cells_executed", m.cells_executed);
  io("cells_deduped", m.cells_deduped);
  io("cells_journal_replayed", m.cells_journal_replayed);
  io("cells_failed", m.cells_failed);
  io("cells_interrupted", m.cells_interrupted);
  io("workers_spawned", m.workers_spawned);
  io("workers_crashed", m.workers_crashed);
  io("cache_cells", m.cache_cells);
  io("cache_bytes", m.cache_bytes);
  io("cache_evicted", m.cache_evicted);
};

std::string DaemonMetrics::to_json() const {
  return json::write(json::Layout::kIndented, metrics_fields, *this);
}

}  // namespace sci::obs
