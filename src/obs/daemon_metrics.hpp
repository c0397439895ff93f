// Daemon-level telemetry for the campaign service: what scibenchd has
// done since it started, one canonical-JSON snapshot.
//
// Same contract as the campaign metrics (exec/progress.hpp): purely
// observational, with a byte-deterministic emit via obs/json.hpp. The
// service updates the counters as jobs flow; the daemon writes the
// snapshot on shutdown (no request op exists yet) so an operator can
// see queue pressure, dedupe efficiency, and worker churn without
// scraping logs.
#pragma once

#include <cstddef>
#include <string>

namespace sci::obs {

struct DaemonMetrics {
  static constexpr int kVersion = 2;

  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  /// Jobs whose campaign finished with failed cells (still completed).
  std::size_t jobs_with_failures = 0;
  /// Jobs rejected before running (bad envelope, non-serializable spec).
  std::size_t jobs_rejected = 0;
  /// Highest queue depth observed (admission pressure).
  std::size_t queue_peak = 0;

  std::size_t cells_executed = 0;  ///< fresh worker-process executions
  std::size_t cells_deduped = 0;   ///< served from the cross-job cache
  std::size_t cells_journal_replayed = 0;
  std::size_t cells_failed = 0;
  std::size_t cells_interrupted = 0;

  std::size_t workers_spawned = 0;  ///< initial fleet + crash respawns
  std::size_t workers_crashed = 0;  ///< deaths observed mid-cell

  /// The cross-job result cache at the snapshot: cells held, the bytes
  /// they cost (at most exec::kResultCacheBytes), and cells dropped so
  /// far to stay within that budget.
  std::size_t cache_cells = 0;
  std::size_t cache_bytes = 0;
  std::size_t cache_evicted = 0;

  /// Canonical JSON (schema "scibench.daemon_metrics").
  [[nodiscard]] std::string to_json() const;
};

}  // namespace sci::obs
