// CampaignRunner: deterministic parallel execution of a Campaign.
//
// The runner schedules cells (config x replication) in rounds, shards
// each round across a threads::ThreadTeam in guided chunks (each chunk
// one BackendContext::run_batch call), and reassembles the results in
// grid order. The first run() creates the team, and every round and
// later run() reuses it; the thread calling run() is its worker 0.
// Because every cell is a pure function of its (config, seed) pair --
// seeds derive from (campaign_seed, config_index, rep), never from
// execution order -- the assembled CampaignResult and every CSV
// exported from it are byte-identical for ANY worker count.
// That contract is enforced by tests/test_exec.cpp.
//
// Measurement control (StoppingPolicy): with the default fixed policy
// there is a single round containing the whole grid -- exactly the
// historical behavior, byte-for-byte. Under sequential stopping the
// first round gives every config min_reps replications; after each
// round the pooled samples of every live config are tested against the
// rank-CI criterion (stats::OnlineSeries), converged configs retire
// with their stop decision journaled, and the next round grants each
// live config its quantum plus a share of the budget freed by retired
// configs, ranked by relative CI width (widest first, CellKey hash then
// config index as tie-breaks). Round boundaries and worker counts never
// influence seeds or sample values, so sequential campaigns are as
// byte-deterministic as fixed ones -- including across kill/resume
// (tests/test_exec_sequential.cpp).
//
// A result cache keyed by (backend name, config levels, seed) lets a
// partially-completed campaign resume without repeating finished cells:
// re-running the same runner (or a larger campaign that shares cells
// with an earlier one) only executes what is missing. A runner owns its
// cache unless the caller lends one, as CampaignService does per job.
// For resume across PROCESSES -- a killed or crashed campaign -- set
// CampaignRunnerOptions::journal_path: completed cells append to a
// crash-safe on-disk journal (exec/journal.hpp) and the rerun replays
// them, producing byte-identical CSVs to an uninterrupted run.
//
// Failure containment: a backend whose run() or make_context() throws
// can no longer take the process down. Cells are retried up to
// max_attempts with deterministically derived seeds; cells that still
// fail are carried in the result with CellResult::error set and
// accounted in the experiment header (campaign.failed /
// campaign.failed_cells), so reports render partial campaigns with
// explicit holes.
//
// Observability: when a trace sink is attached on the calling thread,
// each worker records its dispatched chunks on its own track
// (kWorkerTrackBase + worker * kWorkerTrackStride, in host seconds) and
// any simulator spans emitted inside the cell land on that worker's
// track block; all worker sinks are merged back into the caller's sink
// after the join, so a campaign renders as parallel swimlanes in the
// PR-1 tracing layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dataset.hpp"
#include "core/measurement.hpp"
#include "exec/backend.hpp"
#include "exec/campaign.hpp"
#include "exec/progress.hpp"
#include "threads/team.hpp"

namespace sci::exec {

/// Trace-track layout: worker w owns the half-open tid block
/// [kWorkerTrackBase + w*kWorkerTrackStride, +kWorkerTrackStride).
/// The stride leaves room for the simulator's per-rank (0..), wire
/// (1000+rank), and engine (990) tracks inside each block.
inline constexpr int kWorkerTrackBase = 100000;
inline constexpr int kWorkerTrackStride = 10000;

/// One executed cell: replication `rep` of `config` with `seed`.
struct CampaignCell {
  Config config;
  std::size_t rep = 0;
  std::uint64_t seed = 0;
  CellResult result;
};

/// Result-cache key. The 64-bit hash picks the bucket, but equality
/// compares the full identity -- backend name, factor/level assignment,
/// and seed -- so a hash collision between two distinct cells resolves
/// to separate entries instead of silently serving the wrong cell's
/// samples. Deliberately excludes config.index so the same levels at
/// another grid position (same seed, i.e. under a seed_override) still
/// reuse their entry.
struct CellKey {
  std::string backend;
  std::vector<std::pair<std::string, std::string>> levels;
  std::uint64_t seed = 0;
  std::uint64_t hash = 0;  ///< precomputed; NOT part of the identity

  [[nodiscard]] bool operator==(const CellKey& other) const noexcept {
    return seed == other.seed && backend == other.backend && levels == other.levels;
  }
};

struct CellKeyHash {
  [[nodiscard]] std::size_t operator()(const CellKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash);
  }
};

[[nodiscard]] CellKey make_cell_key(const std::string& backend_name, const Config& config,
                                    std::uint64_t seed);

using CellCache = std::unordered_map<CellKey, CellResult, CellKeyHash>;

/// Successful cells of past runs, shared by a run's workers under `mutex`.
struct ResultCache {
  mutable std::mutex mutex;
  CellCache cells;
};

/// Per-config measurement-control outcome (why this config stopped
/// getting replications). Fixed campaigns carry it too, with
/// stop_reason "fixed" and no CI facts.
struct ConfigStopInfo {
  std::size_t reps = 0;        ///< replications present in the result
  std::size_t stop_round = 0;  ///< 1-based round after which it retired
  bool converged = false;      ///< rank-CI criterion met before the cap
  /// "fixed" | "converged" | "max_reps" | "interrupted".
  std::string stop_reason = "fixed";
  /// Facts at stop time (sequential mode, n > 5 only; NaN otherwise).
  double median = std::numeric_limits<double>::quiet_NaN();
  double rel_ci_half_width = std::numeric_limits<double>::quiet_NaN();
  double ess = std::numeric_limits<double>::quiet_NaN();
};

struct CampaignResult {
  /// Compiled Rule 9 documentation of what ran (grid + environment).
  core::Experiment experiment;
  /// Cells ordered by (config.index, rep), independent of worker count.
  /// Under sequential stopping different configs carry different rep
  /// counts; cell_offsets maps a config to its slice.
  std::vector<CampaignCell> cells;
  /// Replications per config in fixed mode; 0 under sequential stopping
  /// (per-config counts live in cell_offsets / stopping).
  std::size_t replications = 1;
  /// Number of grid configs, stored explicitly -- NEVER derived from
  /// cells.size() / replications, which mis-groups once per-config rep
  /// counts vary.
  std::size_t configs = 0;
  /// Prefix sums: config c owns cells [cell_offsets[c], cell_offsets[c+1]).
  std::vector<std::size_t> cell_offsets;
  /// Per-config stop decisions, size configs.
  std::vector<ConfigStopInfo> stopping;
  /// Scheduling rounds executed (1 for fixed campaigns).
  std::size_t rounds = 0;
  /// True when the campaign ran under sequential stopping.
  bool sequential = false;
  /// Backend calls actually made / served from the result cache.
  std::size_t executed = 0;
  std::size_t cache_hits = 0;
  /// Cells whose backend call threw on every allowed attempt (their
  /// CellResult::error is set). A failed campaign still assembles --
  /// the error cells are accounted in the experiment header
  /// (campaign.failed / campaign.failed_cells) so exported CSVs carry
  /// the damage report.
  std::size_t failed = 0;
  /// Cells replayed from the on-disk journal instead of executed.
  std::size_t journal_hits = 0;
  /// Cells skipped because the cell_budget ran out (error set to
  /// "interrupted: ..."; not failures, not journaled -- a resume with
  /// the same journal executes exactly these).
  std::size_t interrupted = 0;
  /// Extra backend calls spent on retries (attempts beyond the first).
  std::size_t retries = 0;

  [[nodiscard]] std::size_t config_count() const { return configs; }
  /// Replications present for one config (varies under sequential
  /// stopping; == replications in fixed mode). rep_count and cell read
  /// cell_offsets and throw std::out_of_range when it was never filled.
  [[nodiscard]] std::size_t rep_count(std::size_t config_index) const;
  [[nodiscard]] const CampaignCell& cell(std::size_t config_index,
                                         std::size_t rep = 0) const;
  /// Samples of one cell (throws when the cell failed).
  [[nodiscard]] const std::vector<double>& series(std::size_t config_index,
                                                  std::size_t rep = 0) const;
  /// All replications of one config concatenated in rep order.
  [[nodiscard]] std::vector<double> merged_series(std::size_t config_index) const;
  /// Rule 5/6 summary of one cell's samples.
  [[nodiscard]] core::MeasurementSummary summary(std::size_t config_index,
                                                 std::size_t rep = 0) const;

  /// Long-form dataset: one row per sample with columns
  ///   config, rep, f_<factor> (level index), sample, value.
  /// Factor levels are recorded as indices so the table stays numeric;
  /// the embedded experiment header documents the index -> level map.
  [[nodiscard]] core::Dataset samples_dataset() const;
  /// One row per cell: config, rep, f_<factor>..., n, median, ci_lo,
  /// ci_hi, mean, min, max (CI cells are NaN when n is too small).
  [[nodiscard]] core::Dataset summary_dataset() const;
};

struct CampaignRunnerOptions {
  /// Worker threads, the caller's included, at most the first round's
  /// cells; 0 = std::thread::hardware_concurrency(). Results do not
  /// depend on this value (the determinism contract).
  std::size_t workers = 0;
  /// Backend calls allowed per cell before it is declared failed.
  /// Attempt k (k >= 1) re-runs with the deterministically derived seed
  /// splitmix64(cell.seed ^ k), so retry outcomes are a pure function
  /// of the cell -- independent of worker count and scheduling -- and a
  /// deterministic always-throwing backend fails identically every run.
  std::size_t max_attempts = 1;
  /// When non-empty, completed cells (success or final failure) are
  /// appended to this crash-safe journal and replayed on the next run
  /// with the same path -- see exec/journal.hpp. The resumed campaign
  /// skips journaled cells and produces byte-identical CSVs.
  std::string journal_path;
  /// When non-zero, at most this many cells are executed; the rest are
  /// marked interrupted (CampaignResult::interrupted). Deterministic
  /// in-process stand-in for a mid-campaign kill in resume tests; 0 =
  /// unlimited.
  std::size_t cell_budget = 0;
  /// Cooperative interrupt (not owned; may be null). Once it reads
  /// true, every not-yet-claimed cell is marked interrupted -- exactly
  /// the cell-budget drain -- so a SIGINT/SIGTERM handler that sets the
  /// flag (exec/interrupt.hpp) leaves a journal + final metrics
  /// snapshot a rerun resumes byte-identically from.
  const std::atomic<bool>* interrupt = nullptr;
  /// Telemetry observer (not owned; must outlive run()). Receives
  /// heartbeats from a monitor thread every heartbeat_period_s (when
  /// > 0), on_cells once per claimed chunk from the workers, and one
  /// final snapshot after the workers join. Telemetry is observational only: exported CSVs are
  /// byte-identical with the sink attached or not, and nullptr + empty
  /// metrics_path costs nothing.
  ProgressSink* progress = nullptr;
  double heartbeat_period_s = 0.0;
  /// When non-empty, the final ProgressSnapshot is written here as
  /// canonical JSON via atomic temp-file + rename -- on completion AND
  /// on budget interruption, so an external watcher always finds a
  /// whole file describing how far the campaign got.
  std::string metrics_path;
};

class CampaignRunner {
 public:
  /// `cache`, when non-null, is borrowed instead of the runner's own
  /// and must outlive the runner; lend one only to runners whose
  /// backends produce equal results for equal CellKeys.
  CampaignRunner(Backend& backend, Campaign campaign, CampaignRunnerOptions options = {},
                 ResultCache* cache = nullptr);

  /// Executes every cell not already cached; byte-deterministic output.
  [[nodiscard]] CampaignResult run();

  [[nodiscard]] std::size_t cache_size() const;
  void clear_cache();

 private:
  Backend& backend_;
  Campaign campaign_;
  CampaignRunnerOptions options_;
  ResultCache own_cache_;
  ResultCache& cache_;
  std::unique_ptr<threads::ThreadTeam> team_;  ///< created by the first run()
};

}  // namespace sci::exec
