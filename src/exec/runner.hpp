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
// A result cache keyed by (Backend::identity(), config levels, seed)
// lets a partially-completed campaign resume without repeating finished
// cells: re-running the same runner (or a larger campaign that shares
// cells with an earlier one) only executes what is missing. A runner
// owns its cache unless the caller lends one, as CampaignService lends
// its one cache to every job; the cache is bounded (kResultCacheBytes).
// For resume across PROCESSES -- a killed or crashed campaign -- set
// CampaignRunnerOptions::journal_path: completed cells append to a
// crash-safe on-disk journal (exec/journal.hpp) and the rerun replays
// them, producing byte-identical CSVs to an uninterrupted run.
//
// CSV export: with CampaignRunnerOptions::samples_csv / summary_csv
// set, the runner writes the campaign's CSVs at the end of run(). A
// cell's CSV text is formatted once, on the worker thread that finishes
// it (or admits it from the journal, or from a cache entry that has no
// text yet), and cached next to its result; the export writes one
// header and concatenates the cells' text behind their integer row
// prefixes (exec/csv_export.hpp). A deduplicated resubmission formats
// no number.
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
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/dataset.hpp"
#include "exec/backend.hpp"
#include "exec/campaign.hpp"
#include "exec/csv_export.hpp"
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
  /// The cell's CSV text, set on successful cells of a run that writes
  /// CSVs (CampaignRunnerOptions::samples_csv / summary_csv); shared
  /// with the result cache.
  std::shared_ptr<const CellCsv> csv;
};

/// Result-cache key. The 64-bit hash picks the bucket, but equality
/// compares the full identity -- Backend::identity() (its name and
/// every option that decides a cell's bytes), factor/level assignment,
/// and seed -- so a hash collision between two distinct cells resolves
/// to separate entries instead of silently serving the wrong cell's
/// samples. The hash mixes the backend name, not the identity: equal
/// identities imply equal names, so it is a valid hash, and it stays a
/// function of (name, levels, seed) because the sequential planner's
/// tie-break, and so its CSV bytes, read it. Deliberately excludes
/// config.index so the same levels at another grid position (same
/// seed, i.e. under a seed_override) still reuse their entry.
struct CellKey {
  /// One string per CampaignRunner::run(), shared by that run's keys.
  std::shared_ptr<const std::string> identity;
  std::vector<std::pair<std::string, std::string>> levels;
  std::uint64_t seed = 0;
  std::uint64_t hash = 0;  ///< precomputed; NOT part of the identity

  [[nodiscard]] bool operator==(const CellKey& other) const noexcept {
    return seed == other.seed && levels == other.levels &&
           (identity == other.identity || *identity == *other.identity);
  }
};

struct CellKeyHash {
  [[nodiscard]] std::size_t operator()(const CellKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash);
  }
};

/// The hash of a cell of backend `backend_name` (CellKey::hash).
[[nodiscard]] std::uint64_t cell_hash(std::string_view backend_name, const Config& config,
                                      std::uint64_t seed);
[[nodiscard]] CellKey make_cell_key(std::shared_ptr<const std::string> identity,
                                    std::string_view backend_name, const Config& config,
                                    std::uint64_t seed);

/// What a ResultCache may hold, in the bytes ResultCache::bytes() counts.
inline constexpr std::size_t kResultCacheBytes = std::size_t{64} << 20;

/// Successful cells of past runs, shared by a run's workers and, when
/// lent, by every runner of a process (CampaignService's jobs). Bounded
/// by kResultCacheBytes in two generations: cells enter the newer map,
/// a hit in the older one moves the cell to the newer, and a newer map
/// that would pass half the budget replaces the older, whose cells are
/// dropped. A cell is a pure function of its key, so eviction changes
/// only how many cells are served from here, never a result byte. A
/// cell larger than half the budget is not kept. Next to its result a
/// cell keeps its CSV text once a run that writes CSVs has made it;
/// the text counts against the budget.
class ResultCache {
 public:
  /// A copy of the cached result (the entry may be evicted meanwhile);
  /// `csv`, when non-null, receives the cell's text (null if it has
  /// none).
  [[nodiscard]] std::optional<CellResult> find(const CellKey& key,
                                               std::shared_ptr<const CellCsv>* csv = nullptr);
  /// Keeps a successful cell with its text (`csv` may be null). A cell
  /// already held only takes `csv` when it has no text yet. A cell whose
  /// text would take it past half the budget is kept without the text.
  void insert(const CellKey& key, const CellResult& result,
              std::shared_ptr<const CellCsv> csv = nullptr);

  [[nodiscard]] std::size_t size() const;     ///< cells held
  [[nodiscard]] std::size_t bytes() const;    ///< <= kResultCacheBytes
  [[nodiscard]] std::size_t evicted() const;  ///< cells dropped to stay in budget

 private:
  struct Entry {
    CellResult result;
    std::shared_ptr<const CellCsv> csv;  ///< null until a CSV-writing run formats it
  };
  using Generation = std::unordered_map<CellKey, Entry, CellKeyHash>;
  /// What one cached cell costs: the map node with its key, result and
  /// text, plus the heap each of them holds.
  static std::size_t cell_bytes(const CellKey& key, const Entry& entry);
  /// Retires the newer generation to older, dropping the older one's
  /// cells, when `cost` more bytes would take it past half the budget.
  void make_room(std::size_t cost);

  mutable std::mutex mutex_;
  Generation newer_;
  Generation older_;
  std::size_t newer_bytes_ = 0;
  std::size_t older_bytes_ = 0;
  std::size_t evicted_ = 0;
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

  /// Long-form dataset: one row per sample with columns
  ///   config, rep, f_<factor> (level index), sample, value.
  /// Factor levels are recorded as indices so the table stays numeric;
  /// the embedded experiment header documents the index -> level map.
  /// Its CSV is what CampaignRunnerOptions::samples_csv gets
  /// (exec/csv_export.hpp writes the same bytes from cached text).
  [[nodiscard]] core::Dataset samples_dataset() const;
  /// One row per cell: config, rep, f_<factor>..., failed, n, median,
  /// ci_lo, ci_hi, mean, min, max (CI cells are NaN when n is too
  /// small); its CSV is what CampaignRunnerOptions::summary_csv gets.
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
  /// When non-empty, run() writes the samples / summary CSV here as its
  /// last step, after the metrics snapshot, byte-identical to
  /// samples_dataset().save_csv() / summary_dataset().save_csv(). With
  /// either set, each successful cell's CSV text is formatted on the
  /// worker that finishes or admits it and kept in the result cache, so
  /// the export only concatenates (exec/csv_export.hpp).
  std::string samples_csv;
  std::string summary_csv;
};

class CampaignRunner {
 public:
  /// `cache`, when non-null, is borrowed instead of the runner's own
  /// and must outlive the runner.
  CampaignRunner(Backend& backend, Campaign campaign, CampaignRunnerOptions options = {},
                 ResultCache* cache = nullptr);

  /// Executes every cell not already cached; byte-deterministic output.
  [[nodiscard]] CampaignResult run();

 private:
  /// Writes the CSVs the options name, under a "campaign.export" span.
  void export_csvs(const CampaignResult& result) const;

  Backend& backend_;
  Campaign campaign_;
  CampaignRunnerOptions options_;
  ResultCache own_cache_;
  ResultCache& cache_;
  std::unique_ptr<threads::ThreadTeam> team_;  ///< created by the first run()
};

}  // namespace sci::exec
