// Live campaign telemetry: what a running CampaignRunner is doing,
// without touching what it produces.
//
// A ProgressSink observes a campaign from outside the determinism
// boundary: cells completed/failed/retried, samples run, cache and
// journal-resume hits, per-worker throughput, and obs-counter deltas.
// The runner feeds it a heartbeat (from a monitor thread, when
// CampaignRunnerOptions::heartbeat_period_s > 0), the executed or
// cache-served cells of each claimed chunk (on_cells, from the
// workers), and one final snapshot on completion -- including
// budget-interrupted completion. When
// CampaignRunnerOptions::metrics_path is set, the final snapshot is
// additionally written to disk as canonical JSON via an atomic
// temp-file + rename, so a watcher never reads a torn file.
//
// Contract: telemetry is observational only. Result CSVs are a pure
// function of the campaign cells; attaching or detaching a sink (or
// the metrics file) cannot change a single exported byte, and when both
// are unset the runner does zero extra bookkeeping. Enforced by
// tests/test_exec_progress.cpp.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "obs/counters.hpp"

namespace sci::exec {

struct CampaignCell;

/// One worker's share of the campaign: cells it completed and the time
/// it spent inside the claim loop (throughput = cells / busy_s).
struct WorkerProgress {
  std::size_t cells = 0;
  double busy_s = 0.0;
};

/// Point-in-time view of a running (or finished) campaign.
/// Version 2 adds the sequential-stopping convergence stats
/// (sequential, configs_total/converged/capped, rounds, rep_counts);
/// they are zero/empty for fixed campaigns.
struct ProgressSnapshot {
  static constexpr int kVersion = 2;

  std::string campaign;
  std::string backend;

  std::size_t total_cells = 0;
  /// Cells resolved so far by any means; == total_cells when finished.
  std::size_t completed = 0;
  std::size_t executed = 0;      ///< fresh backend runs that succeeded
  std::size_t failed = 0;
  std::size_t retries = 0;       ///< extra attempts beyond the first
  std::size_t cache_hits = 0;
  std::size_t journal_hits = 0;  ///< cells replayed from the resume journal
  std::size_t interrupted = 0;   ///< cell-budget casualties (resume executes them)

  /// Samples produced by fresh backend runs this process.
  std::size_t samples_executed = 0;
  /// Samples present in the assembled result (executed + replayed +
  /// cached); only known on the final snapshot. Equals the row count of
  /// the exported samples CSV.
  std::size_t samples_total = 0;

  double elapsed_s = 0.0;
  bool finished = false;

  /// Sequential-stopping convergence stats (live; zero under fixed).
  bool sequential = false;
  std::size_t configs_total = 0;      ///< grid configs under adaptive control
  std::size_t configs_converged = 0;  ///< retired with the CI criterion met
  std::size_t configs_capped = 0;     ///< retired at max_reps unconverged
  std::size_t rounds = 0;             ///< scheduling rounds completed
  /// Per-config replication counts; final-snapshot fact (like
  /// samples_total), empty on heartbeats and for fixed campaigns.
  std::vector<std::size_t> rep_counts;

  std::vector<WorkerProgress> workers;
  /// obs counter registry delta since run() started (what the campaign
  /// cost to produce -- Rule 9, live).
  obs::CounterSnapshot counter_delta;

  /// Canonical JSON (schema "scibench.campaign_metrics", version 1;
  /// byte-deterministic emit via obs/json.hpp).
  [[nodiscard]] std::string to_json() const;
  /// One human line for heartbeats/logs.
  [[nodiscard]] std::string to_line() const;
};

/// Inverse of ProgressSnapshot::to_json (throws on schema mismatch).
[[nodiscard]] ProgressSnapshot parse_progress_snapshot(std::string_view json_text);

class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  /// Periodic update from the monitor thread. NOT called on any worker
  /// thread; implementations may block briefly (I/O) without slowing
  /// the campaign.
  virtual void on_heartbeat(const ProgressSnapshot& snapshot) { (void)snapshot; }
  /// The cells of one claimed chunk that the backend ran successfully
  /// or the result cache served (from_cache set), in grid order, on the
  /// worker thread that resolved them. Every such cell is passed exactly
  /// once. A chunk's failed, journal-replayed or interrupted cells split
  /// it: each maximal run of reported cells between them is one call, so
  /// a chunk without such cells is one call. Keep it cheap, thread-safe
  /// and non-throwing.
  virtual void on_cells(std::span<const CampaignCell> cells) { (void)cells; }
  /// Exactly once, after the workers joined; snapshot.finished is true.
  virtual void on_complete(const ProgressSnapshot& snapshot) = 0;
};

/// Default sink: one status line per heartbeat and a closing summary,
/// both to stderr (stdout stays the campaign's own).
class StderrHeartbeat : public ProgressSink {
 public:
  void on_heartbeat(const ProgressSnapshot& snapshot) override;
  void on_complete(const ProgressSnapshot& snapshot) override;
};

}  // namespace sci::exec
