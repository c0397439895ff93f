// CampaignService: the benchmark-as-a-service core behind scibenchd.
//
// The service owns a priority submission queue, the cross-job result
// caches, and one service thread that runs admitted campaigns through an
// ordinary CampaignRunner whose backend is a PoolBackend -- cells
// execute in scibench_worker processes (exec/process_pool.hpp), so a
// backend that aborts or is SIGKILLed costs one worker, not the daemon.
//
// Deliberate reuse over reinvention: the service contains NO scheduling
// or journaling logic of its own. Rounds, sequential stopping, retry
// containment, journal WAL/resume, and result assembly are exactly the
// CampaignRunner's -- which is why a campaign run through the daemon at
// any worker-process count produces CSVs byte-identical to an
// in-process run (the PR invariant, pinned by test_exec_service.cpp).
//
// Queue semantics: jobs run one at a time, highest priority first,
// submission order within a priority (deterministic; no starvation
// surprises). Concurrency lives below the queue -- each job saturates
// the whole worker-process fleet -- so two "concurrent" clients
// serialize at the campaign level but share the dedupe cache: the
// overlapping cells of the second submission are served from the cache
// without touching a worker.
//
// Dedupe: the service keeps one ResultCache per distinct
// SimBackendOptions and lends the matching one to each job's runner, so
// the runner's cache is the only result cache. Its key is the
// full-identity CellKey (backend name, factor/level assignment, seed);
// together with equal options, only a cell that would provably produce
// identical bytes is ever deduplicated.
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
#include <list>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "exec/process_pool.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "obs/daemon_metrics.hpp"

namespace sci::exec {

/// One campaign submission: the serializable campaign plus run options
/// the client controls. Output paths are daemon-side filesystem paths
/// (the transport is a local Unix socket; client and daemon share the
/// filesystem by construction).
struct Submission {
  CampaignSpec spec;
  SimBackendOptions backend;
  /// Larger runs first; ties resolve in submission order.
  int priority = 0;
  std::string journal_path;  ///< WAL for crash-safe resume (optional)
  std::string samples_csv;   ///< written when non-empty
  std::string summary_csv;   ///< written when non-empty
  std::string metrics_path;  ///< final ProgressSnapshot (optional)
  /// At most kMaxAttempts.
  std::size_t max_attempts = 1;
  /// Deterministic kill drill (CampaignRunnerOptions::cell_budget).
  std::size_t cell_budget = 0;
  /// Emit "progress" events every this many seconds (0 = off); at most
  /// kMaxHeartbeatS.
  double heartbeat_s = 0.0;
};

/// Largest Submission::heartbeat_s (one day). The runner's monitor waits
/// on a std::chrono duration, whose conversion to clock ticks is
/// undefined for values far beyond it.
inline constexpr double kMaxHeartbeatS = 86400.0;

/// Largest Submission::max_attempts. A cell that always fails runs
/// every attempt, and each attempt of a crashing cell costs a worker
/// respawn, so an unbounded value would hold the queue practically
/// forever.
inline constexpr std::size_t kMaxAttempts = 64;

/// Terminal state of one job.
struct JobOutcome {
  std::uint64_t job_id = 0;
  bool ran = false;          ///< false: rejected or cancelled
  std::string error;         ///< rejection/cancellation/abort reason
  std::size_t cells = 0;
  std::size_t executed = 0;
  std::size_t deduped = 0;   ///< served from the cross-job cache
  std::size_t journal_hits = 0;
  std::size_t failed = 0;
  std::size_t interrupted = 0;
  std::size_t retries = 0;
  std::size_t rounds = 0;
  bool sequential = false;
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

struct ServiceOptions {
  /// Cooperative interrupt forwarded to every runner (see
  /// exec/interrupt.hpp); a signalled daemon drains the active job as
  /// interrupted cells and journals nothing partial.
  const std::atomic<bool>* interrupt = nullptr;
};

class CampaignService {
 public:
  CampaignService(ProcessPool& pool, ServiceOptions options = {});
  /// Stops the queue (pending jobs are cancelled) and joins.
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Enqueues a campaign; returns its job id immediately. `sink` may be
  /// nullptr (no event stream) and must otherwise outlive the job.
  std::uint64_t submit(Submission submission, ServiceEventSink* sink = nullptr);

  /// Blocks until the job reaches a terminal state.
  [[nodiscard]] JobOutcome wait(std::uint64_t job_id);

  /// Stops accepting work and cancels everything still queued; the
  /// in-flight job (if any) finishes or drains via the interrupt flag.
  void stop();

  [[nodiscard]] obs::DaemonMetrics metrics() const;

 private:
  struct QueuedJob {
    std::uint64_t id = 0;
    int priority = 0;
    Submission submission;
    ServiceEventSink* sink = nullptr;
  };
  struct QueueOrder {
    bool operator()(const QueuedJob& a, const QueuedJob& b) const noexcept {
      if (a.priority != b.priority) return a.priority < b.priority;  // max-heap
      return a.id > b.id;  // FIFO within a priority
    }
  };

  void service_loop();
  void run_job(QueuedJob job);
  void finish(std::uint64_t job_id, JobOutcome outcome);
  static void emit(ServiceEventSink* sink, const std::string& line);

  ProcessPool& pool_;
  ServiceOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable done_cv_;
  std::priority_queue<QueuedJob, std::vector<QueuedJob>, QueueOrder> queue_;
  std::map<std::uint64_t, JobOutcome> outcomes_;
  std::uint64_t next_job_id_ = 1;
  bool stopping_ = false;
  obs::DaemonMetrics metrics_;

  /// One cache per distinct backend options; service thread only.
  std::list<std::pair<SimBackendOptions, ResultCache>> caches_;

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
/// "scibench.campaign" envelope), runs it, streams its events to the
/// client until the terminal one, and closes `fd`. A malformed header
/// or envelope -- hostile numbers included: a null or out-of-range
/// "priority", a "max_attempts" above kMaxAttempts, a NaN or
/// out-of-range "heartbeat_s" -- is answered with one "rejected" event
/// (job 0).
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
