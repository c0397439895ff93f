// ProcessPool: fork/exec crash isolation for campaign cells.
//
// The CampaignRunner's in-thread retry logic contains backends that
// THROW, but a backend that calls abort(), segfaults, or is SIGKILLed
// takes the whole process down -- journal and all. The pool moves cell
// execution into `scibench_worker` child processes connected over
// stdin/stdout pipes (one line-delimited JSON job in, one result line
// out; exec/wire.hpp), so the blast radius of a dying backend is one
// disposable worker.
//
// Crash semantics, in byte-identity order:
//
//   1. A worker that dies mid-cell (EOF/EPIPE on its pipes) is reaped,
//      a replacement is spawned, and the SAME job -- same config, SAME
//      seed -- is re-dispatched, up to crash_retries times. A transient
//      kill (operator SIGKILL, OOM) therefore produces exactly the
//      bytes an undisturbed run would have: the cell is a pure function
//      of (config, seed) and the seed never changes.
//   2. A job that kills every worker it touches (a deterministic
//      abort()) exhausts crash_retries and run() throws. The
//      CampaignRunner above then applies its ordinary containment:
//      derived-seed attempts up to max_attempts, then a failed cell
//      carried in the result with the error recorded -- the campaign
//      survives, minus one cell.
//
// The protocol is stateless (every job line carries the full backend
// options), so any worker can run any job and the pool needs no
// affinity bookkeeping. A worker keeps one warm simulation context
// while consecutive jobs carry equal options; that saves the per-job
// world rebuild and never changes bytes. run() is thread-safe; the
// runner's worker threads call it concurrently and block on the free
// list when all worker processes are busy.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"

namespace sci::exec {

/// Reads one '\n'-terminated line (newline stripped) from a worker
/// pipe: the job lines a worker reads from stdin, the replies the pool
/// reads back. False on EOF (also mid-line), on a read error, and on a
/// line longer than obs::json::kMaxDocumentBytes, which is refused
/// before it is buffered whole.
bool read_line_stream(std::FILE* stream, std::string& line);

struct ProcessPoolOptions {
  /// Path to the scibench_worker binary (argv[0] of the children).
  std::string worker_path;
  /// Worker processes kept alive; also the useful upper bound for the
  /// CampaignRunner thread count driving the pool.
  std::size_t workers = 2;
  /// Same-seed re-dispatches after a worker death before run() gives up
  /// and throws (step 2 above).
  std::size_t crash_retries = 2;
};

class ProcessPool {
 public:
  explicit ProcessPool(ProcessPoolOptions options);
  ~ProcessPool();

  ProcessPool(const ProcessPool&) = delete;
  ProcessPool& operator=(const ProcessPool&) = delete;

  /// Executes one cell on a pooled worker process. Blocks while all
  /// workers are busy. Throws std::runtime_error when the job crashes
  /// every worker it is offered (crash_retries exhausted).
  [[nodiscard]] CellResult run(const SimBackendOptions& backend, const Config& config,
                               std::uint64_t seed);

  [[nodiscard]] std::size_t worker_count() const noexcept { return options_.workers; }
  /// Processes ever spawned (initial fleet + crash replacements).
  [[nodiscard]] std::size_t workers_spawned() const noexcept {
    return workers_spawned_.load(std::memory_order_relaxed);
  }
  /// Worker deaths observed mid-cell.
  [[nodiscard]] std::size_t workers_crashed() const noexcept {
    return workers_crashed_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int to_child = -1;      ///< job lines out
    std::FILE* from_child = nullptr;  ///< result lines in (fdopen'd)
  };

  [[nodiscard]] std::unique_ptr<Worker> spawn();
  static void destroy(Worker& worker, bool wait_for_exit);

  ProcessPoolOptions options_;
  std::mutex mutex_;
  std::condition_variable available_;
  std::vector<std::unique_ptr<Worker>> free_;
  std::atomic<std::size_t> workers_spawned_{0};
  std::atomic<std::size_t> workers_crashed_{0};
};

/// Backend adapter that dispatches every cell to a ProcessPool -- drop
/// it into an ordinary CampaignRunner and the whole round/journal/cache
/// machinery runs unchanged, which is how the daemon inherits the
/// byte-identity contract for free. name()/describe() delegate to the
/// equivalent in-process SimBackend so cache keys, journal fingerprints,
/// and Rule 9 headers are indistinguishable from an in-process run.
///
/// A worker reply with `error` set re-throws here: the runner must see
/// the same exception surface as an in-process backend that threw, so
/// its retry/containment path (derived attempt seeds, failed-cell
/// accounting) behaves identically.
class PoolBackend : public Backend {
 public:
  /// Observes every cell this backend resolves (fresh execution or
  /// shared-cache dedupe) -- the daemon's per-cell event stream. Called
  /// on runner worker threads; keep it cheap and thread-safe.
  using CellObserver =
      std::function<void(const Config&, std::uint64_t seed, const CellResult&, bool deduped)>;

  PoolBackend(ProcessPool& pool, SimBackendOptions options);

  /// Attaches the service-wide dedupe cache (full-identity CellKey ->
  /// CellResult). Cells found there are served without touching the
  /// pool, so identical submissions from concurrent clients re-run
  /// nothing. Pointers are borrowed; both must outlive the backend.
  void set_shared_cache(CellCache* cache, std::mutex* cache_mutex) {
    shared_cache_ = cache;
    shared_mutex_ = cache_mutex;
  }
  void set_observer(CellObserver observer) { observer_ = std::move(observer); }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] CellResult run(const Config& config, std::uint64_t seed) override;

  /// Cells served from the shared cache instead of executed.
  [[nodiscard]] std::size_t deduped() const noexcept {
    return deduped_.load(std::memory_order_relaxed);
  }

 private:
  ProcessPool& pool_;
  SimBackend inner_;  ///< identity donor: name/describe/fingerprint
  CellCache* shared_cache_ = nullptr;
  std::mutex* shared_mutex_ = nullptr;
  CellObserver observer_;
  std::atomic<std::size_t> deduped_{0};
};

}  // namespace sci::exec
