// CampaignService: the benchmark-as-a-service core behind scibenchd.
//
// The service owns a priority submission queue, the cross-job result
// cache, and one service thread that runs admitted campaigns through
// run_job with a PoolBackend -- cells execute in scibench_worker
// processes (exec/process_pool.hpp), so a backend that aborts or is
// SIGKILLed costs one worker, not the daemon.
//
// Deliberate reuse over reinvention: the service contains NO scheduling
// or journaling logic of its own. Rounds, sequential stopping, retry
// containment, journal WAL/resume, and result assembly are exactly the
// CampaignRunner's, and run_job is also `scibench_submit --local`'s
// whole job -- which is why a campaign run through the daemon at any
// worker-process count produces CSVs byte-identical to an in-process
// run (the PR invariant, pinned by test_exec_service.cpp).
//
// Queue semantics: jobs run one at a time, highest priority first,
// submission order within a priority (deterministic; no starvation
// surprises). Concurrency lives below the queue -- each job saturates
// the whole worker-process fleet -- so two "concurrent" clients
// serialize at the campaign level but share the dedupe cache: the
// overlapping cells of the second submission are served from the cache
// without touching a worker.
//
// Dedupe: the service keeps one ResultCache and lends it to every job's
// runner, so the runner's cache is the only result cache. A cell cached
// by a job that wrote CSVs keeps its CSV text there too, so a
// deduplicated resubmission's export copies bytes instead of formatting
// numbers (exec/csv_export.hpp). Its key is
// the full-identity CellKey (Backend::identity(), which carries every
// SimBackendOptions field, plus factor/level assignment and seed), so
// only a cell that would provably produce identical bytes is ever
// deduplicated. The cache holds at most kResultCacheBytes; what it
// drops is executed again by the next job that needs it.
//
// Events: every state transition is streamed to the submitting client's
// ServiceEventSink as lines of canonical JSON ("queued", "started",
// per-cell "cell" from the runner's ProgressSink::on_cells, periodic
// "progress" heartbeats, "done"/"rejected"/"error"), the
// ProgressSnapshot-style live view the tools print. The "cell" lines of
// one runner chunk go out as one on_event call -- one send to a socket
// client -- so events cost a send per chunk, not per cell.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "exec/process_pool.hpp"
#include "exec/runner.hpp"
#include "exec/wire.hpp"
#include "obs/daemon_metrics.hpp"

namespace sci::exec {

/// Terminal state of one job.
struct JobOutcome {
  std::uint64_t job_id = 0;
  bool ran = false;          ///< false: rejected, cancelled or failed to run
  bool rejected = false;     ///< an invalid spec or backend options
  std::string error;         ///< rejection/cancellation/abort reason
  std::size_t cells = 0;
  std::size_t executed = 0;
  std::size_t deduped = 0;   ///< served from the cross-job cache
  std::size_t journal_hits = 0;
  std::size_t failed = 0;
  std::size_t interrupted = 0;
};

/// Receives the event stream of one submission, never concurrently for
/// one sink: "queued" from the submitting thread under the service's
/// lock (so on_event must not call back into the service), the rest
/// from the service thread or the job's runner threads, serialized.
/// Implementations that write to sockets should tolerate slow/dead peers
/// without throwing, as SocketEventSink does.
class ServiceEventSink {
 public:
  virtual ~ServiceEventSink() = default;
  /// One or more '\n'-separated event lines, without a trailing
  /// newline: the "cell" lines of one runner chunk arrive as one call.
  virtual void on_event(const std::string& json_lines) = 0;
};

/// The job body of CampaignService and of `scibench_submit --local`:
/// runs `sub` as job `job_id` -- its runner writes the CSVs it names
/// (CampaignRunnerOptions::samples_csv / summary_csv) -- and streams to
/// `sink` (may be nullptr), serialized: "started", "cell" chunks,
/// "progress" heartbeats, then "done", "rejected" (invalid spec or
/// backend options) or "error" (the run failed). Cells run in `pool`'s
/// workers through a PoolBackend, or in-process through a SimBackend
/// when `pool` is nullptr. `cache` (optional) is lent to the runner;
/// `interrupt` drains the job as interrupted cells (exec/interrupt.hpp).
[[nodiscard]] JobOutcome run_job(const Submission& sub, std::uint64_t job_id,
                                 ServiceEventSink* sink, ProcessPool* pool = nullptr,
                                 ResultCache* cache = nullptr,
                                 const std::atomic<bool>* interrupt = nullptr);

/// Parses the two submission lines, or streams one "rejected" event
/// (job 0) to `sink` and returns nullopt.
[[nodiscard]] std::optional<Submission> admit(std::string_view header_line,
                                              std::string_view envelope_line,
                                              ServiceEventSink& sink);

class CampaignService {
 public:
  /// `interrupt` is forwarded to every job (see run_job).
  explicit CampaignService(ProcessPool& pool, const std::atomic<bool>* interrupt = nullptr);
  /// Stops the queue (pending jobs are cancelled) and joins.
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Enqueues a campaign and returns at once; the future becomes ready
  /// when the job reaches a terminal state. The service keeps nothing
  /// of a finished job. `sink` may be nullptr (no event stream) and
  /// must otherwise outlive the job.
  [[nodiscard]] std::future<JobOutcome> submit(Submission submission,
                                               ServiceEventSink* sink = nullptr);

  /// Stops accepting work and cancels everything still queued; the
  /// in-flight job (if any) finishes or drains via the interrupt flag.
  void stop();

  [[nodiscard]] obs::DaemonMetrics metrics() const;

 private:
  struct QueuedJob {
    Submission submission;
    ServiceEventSink* sink = nullptr;
    std::promise<JobOutcome> done;
  };
  /// (priority, job id): the highest priority first, submission order
  /// within a priority.
  using QueueKey = std::pair<int, std::uint64_t>;
  struct QueueOrder {
    bool operator()(const QueueKey& a, const QueueKey& b) const noexcept {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    }
  };

  void service_loop();
  void finish(QueuedJob& job, JobOutcome outcome);

  ProcessPool& pool_;
  const std::atomic<bool>* interrupt_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::map<QueueKey, QueuedJob, QueueOrder> queue_;
  std::uint64_t next_job_id_ = 1;
  bool stopping_ = false;
  obs::DaemonMetrics metrics_;

  /// Lent to every job; locks itself, so metrics() reads it too.
  ResultCache cache_;

  std::thread service_thread_;
};

// ---------------------------------------------------------------------
// Unix-domain line transport shared by scibenchd and scibench_submit.
// One JSON document per '\n'-terminated line in both directions: the
// client's two submission lines, then the daemon's event stream (one
// short line per cell, a chunk's lines per send). A line is at most
// obs::json::kMaxDocumentBytes long, the largest document the parser
// accepts anyway. Every socket is
// close-on-exec, so a worker process the pool respawns never inherits
// (and holds open) a client's connection.

/// Binds + listens on `path` (unlinking a stale socket first). Throws
/// std::runtime_error; returns the listening fd.
[[nodiscard]] int listen_unix(const std::string& path, int backlog = 8);
/// Connects to a listening daemon; throws std::runtime_error.
[[nodiscard]] int connect_unix(const std::string& path);
/// Writes `line` + '\n'; false on a dead peer or an expired send
/// timeout (never throws, never raises SIGPIPE -- callers sit in event
/// loops).
bool write_line_fd(int fd, const std::string& line);
/// Reads one '\n'-terminated line into `line` (newline stripped).
/// `fd` must be a stream socket: the reader peeks at what is queued,
/// then consumes exactly the bytes up to and including the newline, so
/// it keeps no buffer between calls and costs two syscalls per line.
/// False on EOF (also mid-line), on an error or an expired receive
/// timeout, and on a line longer than obs::json::kMaxDocumentBytes --
/// the rest of that line stays unread, so the caller drops the peer.
bool read_line_fd(int fd, std::string& line);

/// Serves one client connection of scibenchd: reads the two-line
/// submission (a {"op": "submit", ...} header, then a
/// "scibench.campaign" envelope), admits it, runs it, streams its
/// events to the client until the terminal one, and closes `fd`. A
/// malformed header or envelope -- hostile numbers included: a null or
/// out-of-range "priority", a "max_attempts" above kMaxAttempts, a NaN
/// or out-of-range "heartbeat_s" -- is answered with one "rejected"
/// event (job 0).
void serve_client(CampaignService& service, int fd);

/// How long one event send may block before SocketEventSink gives up
/// on its client.
inline constexpr int kEventSendTimeoutMs = 2000;

/// Streams one submission's events to a connected client socket, each
/// on_event in one send. A client that stops reading fills its socket buffer, and
/// an unbounded blocking send would then stall the job and every job
/// queued behind it. The constructor therefore arms a send timeout
/// (SO_SNDTIMEO, kEventSendTimeoutMs) on `fd`; after one failed or
/// timed-out send the sink mutes itself, and the job runs on and writes
/// its CSVs. Does not own `fd`.
class SocketEventSink : public ServiceEventSink {
 public:
  explicit SocketEventSink(int fd);
  void on_event(const std::string& json_lines) override;

 private:
  int fd_;
  bool alive_ = true;
};

}  // namespace sci::exec
