// ProcessPool: fork/exec crash isolation for campaign cells.
//
// The CampaignRunner's in-thread retry logic contains backends that
// THROW, but a backend that calls abort(), segfaults, or is SIGKILLed
// takes the whole process down -- journal and all. The pool moves cell
// execution into `scibench_worker` child processes connected over
// stdin/stdout pipes (line-delimited JSON jobs in, one result line per
// job out, in order; exec/wire.hpp), so the blast radius of a dying
// backend is one disposable worker.
//
// Pipelining: run_batch() takes one worker process for a chunk of cells
// and writes their job lines back-to-back in one write(), then reads
// the replies in order, so a chunk pays one round trip per sub-batch
// instead of one per cell. A sub-batch never holds more job bytes than
// the job pipe holds (F_GETPIPE_SZ), so that write never blocks while
// the worker is blocked writing a reply nobody reads yet: any reply
// size is deadlock-free. run() is the one-cell case of the same loop.
//
// Crash semantics, in byte-identity order:
//
//   1. Replies read before a worker's EOF are kept. The first cell
//      without a reply is the one the worker died on: the worker is
//      reaped, a replacement is spawned, and the SAME job -- same
//      config, SAME seed -- is re-dispatched alone, up to crash_retries
//      times. The cells after it are re-sent without counting as
//      crashes. A transient kill (operator SIGKILL, OOM) therefore
//      produces exactly the bytes an undisturbed run would have: the
//      cell is a pure function of (config, seed) and the seed never
//      changes.
//   2. A job that kills every worker it touches (a deterministic
//      abort()) exhausts crash_retries and comes back with its error
//      set. The CampaignRunner above then applies its ordinary
//      containment: derived-seed attempts up to max_attempts, then a
//      failed cell carried in the result with the error recorded -- the
//      campaign survives, minus one cell.
//
// So workers_crashed and the failed cells are what one-job dispatch
// produces. The protocol is stateless (every job line carries the full
// backend options), so any worker can run any job and the pool needs
// no affinity bookkeeping. A worker keeps one warm simulation context
// while consecutive jobs carry equal options; that saves the per-job
// world rebuild and never changes bytes. run() and run_batch() are
// thread-safe; the runner's worker threads call them concurrently and
// block on the free list when all worker processes are busy.
#pragma once

#include <limits.h>
#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

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
  /// Same-seed re-dispatches after a worker death on a cell before the
  /// pool gives up on it (step 2 above).
  std::size_t crash_retries = 2;
};

class ProcessPool {
 public:
  explicit ProcessPool(ProcessPoolOptions options);
  ~ProcessPool();

  ProcessPool(const ProcessPool&) = delete;
  ProcessPool& operator=(const ProcessPool&) = delete;

  /// Executes one cell on a pooled worker process. Blocks while all
  /// workers are busy. The result's error is set when the worker
  /// reported one, when the job crashed every worker it was offered
  /// (crash_retries exhausted), or when the reply was unparseable.
  [[nodiscard]] CellResult run(const SimBackendOptions& backend, const Config& config,
                               std::uint64_t seed);

  /// Executes a chunk of cells pipelined on one pooled worker process at
  /// a time, filling each cell's result as run() would.
  void run_batch(const SimBackendOptions& backend, std::span<BatchCell> cells);

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
    std::size_t pipe_capacity = PIPE_BUF;  ///< bytes the job pipe holds
  };

  [[nodiscard]] std::unique_ptr<Worker> spawn();
  static void destroy(Worker& worker, bool wait_for_exit);
  /// Takes a free worker, blocking while all are busy.
  [[nodiscard]] std::unique_ptr<Worker> acquire();
  void release(std::unique_ptr<Worker> worker);
  /// Counts a crash, destroys `worker` and releases a fresh one.
  void replace(std::unique_ptr<Worker> worker, bool wait_for_exit);

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
/// byte-identity contract for free; dedupe is the runner's cache, not
/// this adapter's. name()/describe() delegate to the equivalent
/// in-process SimBackend so cache keys, journal fingerprints, and Rule 9
/// headers are indistinguishable from an in-process run. Its context
/// sends each runner chunk to ProcessPool::run_batch.
///
/// A worker reply with `error` set re-throws from run(), and comes back
/// as that cell's error from the context's run_batch: the runner must
/// see the same exception surface as an in-process backend that threw,
/// so its retry/containment path (derived attempt seeds, failed-cell
/// accounting) behaves identically.
class PoolBackend : public Backend {
 public:
  PoolBackend(ProcessPool& pool, SimBackendOptions options);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] CellResult run(const Config& config, std::uint64_t seed) override;
  [[nodiscard]] std::unique_ptr<BackendContext> make_context() override;

 private:
  class Context;
  ProcessPool& pool_;
  SimBackend inner_;  ///< identity donor: name/describe/fingerprint
};

}  // namespace sci::exec
