#include "obs/daemon_metrics.hpp"

#include "obs/json.hpp"

namespace sci::obs {

std::string DaemonMetrics::to_json() const {
  std::string out;
  out.reserve(512);
  out += "{\n  \"schema\": \"scibench.daemon_metrics\",\n  \"version\": ";
  out += json::dump_size(static_cast<std::size_t>(kVersion));
  const auto field = [&out](const char* name, std::size_t value) {
    out += ",\n  \"";
    out += name;
    out += "\": " + json::dump_size(value);
  };
  field("jobs_submitted", jobs_submitted);
  field("jobs_completed", jobs_completed);
  field("jobs_with_failures", jobs_with_failures);
  field("jobs_rejected", jobs_rejected);
  field("queue_peak", queue_peak);
  field("cells_executed", cells_executed);
  field("cells_deduped", cells_deduped);
  field("cells_journal_replayed", cells_journal_replayed);
  field("cells_failed", cells_failed);
  field("cells_interrupted", cells_interrupted);
  field("workers_spawned", workers_spawned);
  field("workers_crashed", workers_crashed);
  field("cache_cells", cache_cells);
  field("cache_bytes", cache_bytes);
  field("cache_evicted", cache_evicted);
  out += "\n}\n";
  return out;
}

}  // namespace sci::obs
