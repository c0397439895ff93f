// sci::exec measurement backends.
//
// The paper's Rule 9 says an experiment is its factorial design: the
// factors, their levels, and the fixed environment. sci::exec makes
// that design executable. A Config is one cell of the factorial grid
// (one level chosen per factor); a Backend knows how to produce one
// measurement -- one replication of one cell -- from a (config, seed)
// pair. Everything above (grid enumeration, seeding, sharding across
// workers, caching, CSV export) is backend-agnostic and lives in
// campaign.hpp / runner.hpp.
//
// Determinism contract: a backend whose measurement substrate is
// simulated (SimBackend) must be a pure function of (config, seed) --
// re-running a cell regenerates exactly the published series. Host
// backends measure real time and are exempt, but must still be safe to
// call from multiple worker threads at once.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rng/xoshiro.hpp"

namespace sci::exec {

/// One cell of the factorial grid: a level chosen for every factor.
struct Config {
  /// Position in the campaign's row-major grid enumeration (first
  /// factor slowest-varying). Stable across runs and worker counts.
  std::size_t index = 0;
  /// (factor name, chosen level) in factor declaration order.
  std::vector<std::pair<std::string, std::string>> levels;
  /// Per-factor index of the chosen level, aligned with `levels`.
  std::vector<std::size_t> level_indices;

  /// Level of `factor`, or nullptr when the campaign has no such factor.
  [[nodiscard]] const std::string* find_level(const std::string& factor) const noexcept;
  /// Level of `factor`; throws std::out_of_range when absent.
  [[nodiscard]] const std::string& level(const std::string& factor) const;
  /// Integer level (strict parse; throws std::invalid_argument on junk).
  [[nodiscard]] long long level_int(const std::string& factor) const;

  /// "system=dora message_bytes=64" -- for labels and error messages.
  [[nodiscard]] std::string to_string() const;

  /// Order-sensitive hash of the factor/level assignment mixed with
  /// `salt` (splitmix64 over every byte). The runner's result cache key
  /// is hash(levels) mixed with the cell seed and the backend name.
  [[nodiscard]] std::uint64_t hash(std::uint64_t salt = 0) const noexcept;
};

/// One backend invocation's output: the raw sample series of a single
/// replication, never pre-summarized (Rule 5: keep the spread).
struct CellResult {
  std::vector<double> samples;
  std::string unit = "ns";
  /// Why sampling stopped: "converged" | "max_samples" | "fixed".
  std::string stop_reason = "fixed";
  std::size_t warmup_discarded = 0;
  /// Filled by the runner: true when served from the result cache.
  bool from_cache = false;
  /// Hot-path allocation audit, filled by SimBackend per call
  /// (thread-local deltas around the simulation, so concurrent workers
  /// never pollute each other's numbers). In steady state both are zero
  /// from the second replication of a shape onward; excluded from CSV
  /// exports and from the wire, so they never affect byte-determinism.
  std::uint64_t coro_frame_heap_allocs = 0;  ///< sim::FramePool misses
  std::uint64_t callback_heap_spills = 0;    ///< InlineCallback SBO spills
  /// Non-empty when the backend threw; `samples` is then empty.
  std::string error;
  /// Backend calls this cell consumed (1 on first-try success; up to
  /// CampaignRunnerOptions::max_attempts when retries engaged). Zero
  /// for cells never executed (cache/journal hits keep the recorded
  /// value; interrupted cells report 0).
  std::size_t attempts = 0;
};

/// One cell of a BackendContext::run_batch call: the backend fills
/// `result` for (config, seed).
struct BatchCell {
  const Config* config = nullptr;
  std::uint64_t seed = 0;
  CellResult result;
};

/// Per-worker reusable state for a Backend: the runner creates one
/// context per worker thread and feeds it that worker's cells
/// sequentially, so a context may keep simulation worlds, sample
/// buffers, and RNG state warm across replications. Contexts must obey
/// the same determinism contract as Backend::run -- run() here must be
/// byte-identical to the backend's stateless run() for every
/// (config, seed) -- and need not be thread-safe (one worker each).
class BackendContext {
 public:
  virtual ~BackendContext() = default;

  /// Produces the samples of one (config, seed) cell replication.
  [[nodiscard]] virtual CellResult run(const Config& config, std::uint64_t seed) = 0;

  /// Runs a chunk of cells, filling each one's result as run() would. A
  /// cell whose run throws gets the exception text in result.error and
  /// the batch goes on. The default loops run(); a backend that can
  /// overlap the cells of a chunk (the process pool pipelines their job
  /// lines to one worker process) overrides it.
  virtual void run_batch(std::span<BatchCell> cells) {
    for (BatchCell& cell : cells) {
      try {
        cell.result = run(*cell.config, cell.seed);
      } catch (const std::exception& e) {
        cell.result = CellResult{};
        cell.result.error = e.what();
      } catch (...) {
        cell.result = CellResult{};
        cell.result.error = "unknown backend exception";
      }
    }
  }
};

/// A measurement substrate. One call = one replication of one grid
/// cell. Implementations must tolerate concurrent run() calls from the
/// CampaignRunner's workers.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable identifier; names the backend in Rule 9 headers, and equal
  /// identity() implies equal name().
  [[nodiscard]] virtual std::string name() const = 0;

  /// Produces the samples of one (config, seed) cell replication.
  [[nodiscard]] virtual CellResult run(const Config& config, std::uint64_t seed) = 0;

  /// Creates per-worker reusable state (see BackendContext). Returning
  /// nullptr (the default) tells the runner to call run() directly;
  /// backends with expensive per-call setup, or that run a chunk of
  /// cells faster than one by one, override this.
  [[nodiscard]] virtual std::unique_ptr<BackendContext> make_context() { return nullptr; }

  /// One-line description for Rule 9 documentation (defaults to name()).
  [[nodiscard]] virtual std::string describe() const { return name(); }

  /// Everything besides (config, seed) that decides the bytes of a
  /// cell: name() plus any options. It is part of the result-cache key
  /// (CellKey) and of the campaign journal's fingerprint, so neither a
  /// cached cell nor a journal is reused under other options. Defaults
  /// to name(), for backends without options that matter.
  [[nodiscard]] virtual std::string identity() const { return name(); }
};

/// The campaign seeding scheme: the seed of replication `rep` of grid
/// cell `config_index` is derived from the campaign seed by three
/// chained splitmix64 steps,
///   s0 = splitmix64(campaign_seed)
///   s1 = splitmix64(s0 ^ config_index)
///   seed = splitmix64(s1 ^ rep)
/// so cells are statistically independent, reproducible from the three
/// integers alone, and independent of execution order / worker count.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t campaign_seed,
                                               std::uint64_t config_index,
                                               std::uint64_t rep) noexcept {
  std::uint64_t state = campaign_seed;
  state = rng::splitmix64_next(state) ^ config_index;
  state = rng::splitmix64_next(state) ^ rep;
  return rng::splitmix64_next(state);
}

}  // namespace sci::exec
