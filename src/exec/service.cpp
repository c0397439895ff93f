#include "exec/service.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"
#include "obs/json.hpp"

namespace sci::exec {

namespace json = obs::json;

namespace {

/// Forwards runner cells and heartbeats as "cell" and "progress" event
/// lines.
class EventProgressSink : public ProgressSink {
 public:
  EventProgressSink(std::uint64_t job_id, std::function<void(const std::string&)> emit)
      : job_id_(job_id), emit_(std::move(emit)) {}

  void on_heartbeat(const ProgressSnapshot& s) override {
    std::string line = "{\"event\": \"progress\", \"job\": " + json::dump_size(job_id_);
    line += ", \"completed\": " + json::dump_size(s.completed);
    line += ", \"total\": " + json::dump_size(s.total_cells);
    line += ", \"executed\": " + json::dump_size(s.executed);
    line += ", \"cache_hits\": " + json::dump_size(s.cache_hits);
    line += ", \"journal_hits\": " + json::dump_size(s.journal_hits);
    line += ", \"failed\": " + json::dump_size(s.failed);
    line += ", \"interrupted\": " + json::dump_size(s.interrupted);
    line += ", \"elapsed_s\": " + json::dump_number(s.elapsed_s);
    line += "}";
    emit_(line);
  }
  /// One "cell" line per cell, '\n'-separated in one event, so a chunk
  /// costs the client one send.
  void on_cells(std::span<const CampaignCell> cells) override {
    std::string lines;
    lines.reserve(cells.size() * 96);
    for (const CampaignCell& cell : cells) {
      if (!lines.empty()) lines += '\n';
      lines += "{\"event\": \"cell\", \"job\": ";
      lines += json::dump_size(job_id_);
      lines += ", \"config\": ";
      lines += json::dump_size(cell.config.index);
      lines += ", \"seed\": ";
      json::append_quoted(lines, wire::hex_u64(cell.seed));
      lines += ", \"n\": ";
      lines += json::dump_size(cell.result.samples.size());
      lines += ", \"deduped\": ";
      lines += cell.result.from_cache ? "true}" : "false}";
    }
    emit_(lines);
  }
  void on_complete(const ProgressSnapshot&) override {}  // "done" covers it

 private:
  std::uint64_t job_id_;
  std::function<void(const std::string&)> emit_;
};

std::string rejected_event(std::uint64_t job_id, const std::string& error) {
  return "{\"event\": \"rejected\", \"job\": " + json::dump_size(job_id) +
         ", \"error\": " + json::quoted(error) + "}";
}

}  // namespace

JobOutcome run_job(const Submission& sub, std::uint64_t job_id, ServiceEventSink* sink,
                   ProcessPool* pool, ResultCache* cache,
                   const std::atomic<bool>* interrupt) {
  // Cell events arrive on runner worker threads and heartbeats on the
  // monitor thread; serialize them so the sink sees one line at a time.
  std::mutex emit_mutex;
  const auto emit_line = [&](const std::string& line) {
    if (sink == nullptr) return;
    std::lock_guard<std::mutex> lock(emit_mutex);
    sink->on_event(line);
  };

  JobOutcome outcome;
  outcome.job_id = job_id;
  try {
    Campaign campaign(sub.spec);  // validates; invalid specs are rejected below
    const std::unique_ptr<Backend> backend =
        pool != nullptr
            ? std::unique_ptr<Backend>(std::make_unique<PoolBackend>(*pool, sub.backend))
            : std::make_unique<SimBackend>(sub.backend);

    emit_line("{\"event\": \"started\", \"job\": " + json::dump_size(job_id) +
              ", \"campaign\": " + json::quoted(sub.spec.name) +
              ", \"cells\": " + json::dump_size(campaign.cell_count()) + "}");

    EventProgressSink progress(job_id, emit_line);
    CampaignRunnerOptions ropts;
    ropts.workers = pool != nullptr ? pool->worker_count() : 0;  // saturates the fleet
    ropts.journal_path = sub.journal_path;
    ropts.max_attempts = sub.max_attempts;
    ropts.metrics_path = sub.metrics_path;
    ropts.samples_csv = sub.samples_csv;
    ropts.summary_csv = sub.summary_csv;
    ropts.interrupt = interrupt;
    ropts.progress = &progress;
    ropts.heartbeat_period_s = sub.heartbeat_s;

    CampaignRunner runner(*backend, std::move(campaign), ropts, cache);
    const CampaignResult result = runner.run();  // writes the CSVs too

    outcome.ran = true;
    outcome.cells = result.cells.size();
    outcome.executed = result.executed;
    outcome.deduped = result.cache_hits;
    outcome.journal_hits = result.journal_hits;
    outcome.failed = result.failed;
    outcome.interrupted = result.interrupted;

    std::string line = "{\"event\": \"done\", \"job\": " + json::dump_size(job_id);
    line += ", \"cells\": " + json::dump_size(outcome.cells);
    line += ", \"executed\": " + json::dump_size(outcome.executed);
    line += ", \"deduped\": " + json::dump_size(outcome.deduped);
    line += ", \"journal_hits\": " + json::dump_size(outcome.journal_hits);
    line += ", \"failed\": " + json::dump_size(outcome.failed);
    line += ", \"interrupted\": " + json::dump_size(outcome.interrupted);
    line += ", \"retries\": " + json::dump_size(result.retries);
    line += ", \"rounds\": " + json::dump_size(result.rounds);
    line += ", \"sequential\": ";
    line += result.sequential ? "true" : "false";
    line += "}";
    emit_line(line);
  } catch (const std::invalid_argument& e) {
    // The spec or the backend options are broken: admission failure.
    outcome.rejected = true;
    outcome.error = e.what();
    emit_line(rejected_event(job_id, outcome.error));
  } catch (const std::exception& e) {
    // The run itself failed (journal mismatch, unwritable CSV...).
    outcome.error = e.what();
    emit_line("{\"event\": \"error\", \"job\": " + json::dump_size(job_id) +
              ", \"error\": " + json::quoted(outcome.error) + "}");
  }
  return outcome;
}

std::optional<Submission> admit(std::string_view header_line, std::string_view envelope_line,
                                ServiceEventSink& sink) {
  try {
    return wire::parse_submission(header_line, envelope_line);
  } catch (const std::exception& e) {
    sink.on_event(rejected_event(0, e.what()));
    return std::nullopt;
  }
}

CampaignService::CampaignService(ProcessPool& pool, const std::atomic<bool>* interrupt)
    : pool_(pool), interrupt_(interrupt) {
  service_thread_ = std::thread([this] { service_loop(); });
}

CampaignService::~CampaignService() {
  stop();
  if (service_thread_.joinable()) service_thread_.join();
}

std::future<JobOutcome> CampaignService::submit(Submission submission,
                                                ServiceEventSink* sink) {
  QueuedJob job{std::move(submission), sink, {}};
  std::future<JobOutcome> done = job.done.get_future();
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t id = next_job_id_++;
  if (stopping_) {
    lock.unlock();
    JobOutcome outcome;
    outcome.job_id = id;
    outcome.rejected = true;
    outcome.error = "service is stopping";
    if (sink != nullptr) sink->on_event(rejected_event(id, outcome.error));
    finish(job, std::move(outcome));
    return done;
  }
  metrics_.jobs_submitted += 1;
  // Under the lock: the service thread cannot pop the job, and write
  // "started" to the same sink, before "queued" is out.
  if (sink != nullptr) {
    sink->on_event("{\"event\": \"queued\", \"job\": " + json::dump_size(id) +
                   ", \"priority\": " + std::to_string(job.submission.priority) + "}");
  }
  const int priority = job.submission.priority;
  queue_.emplace(QueueKey{priority, id}, std::move(job));
  metrics_.queue_peak = std::max(metrics_.queue_peak, queue_.size());
  queue_cv_.notify_one();
  return done;
}

void CampaignService::stop() {
  std::map<QueueKey, QueuedJob, QueueOrder> cancelled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    cancelled.swap(queue_);
  }
  for (auto& [key, job] : cancelled) {
    JobOutcome outcome;
    outcome.job_id = key.second;
    outcome.error = "cancelled: service stopping";
    if (job.sink != nullptr) {
      job.sink->on_event("{\"event\": \"cancelled\", \"job\": " +
                         json::dump_size(key.second) + "}");
    }
    finish(job, std::move(outcome));
  }
  queue_cv_.notify_all();
}

obs::DaemonMetrics CampaignService::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::DaemonMetrics m = metrics_;
  m.workers_spawned = pool_.workers_spawned();
  m.workers_crashed = pool_.workers_crashed();
  m.cache_cells = cache_.size();
  m.cache_bytes = cache_.bytes();
  m.cache_evicted = cache_.evicted();
  return m;
}

void CampaignService::finish(QueuedJob& job, JobOutcome outcome) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.jobs_completed += outcome.ran ? 1 : 0;
    metrics_.jobs_rejected += outcome.rejected ? 1 : 0;
    metrics_.jobs_with_failures += (outcome.ran && outcome.failed > 0) ? 1 : 0;
    metrics_.cells_executed += outcome.executed;
    metrics_.cells_deduped += outcome.deduped;
    metrics_.cells_journal_replayed += outcome.journal_hits;
    metrics_.cells_failed += outcome.failed;
    metrics_.cells_interrupted += outcome.interrupted;
  }
  job.done.set_value(std::move(outcome));
}

void CampaignService::service_loop() {
  for (;;) {
    std::uint64_t id = 0;
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left
      id = queue_.begin()->first.second;
      job = std::move(queue_.begin()->second);
      queue_.erase(queue_.begin());
    }
    JobOutcome outcome = run_job(job.submission, id, job.sink, &pool_, &cache_, interrupt_);
    finish(job, std::move(outcome));
  }
}

// ------------------------------------------------------------- clients

void serve_client(CampaignService& service, int fd) {
  std::string header_line;
  std::string campaign_line;
  SocketEventSink sink(fd);  // a client that stops reading is muted
  if (read_line_fd(fd, header_line) && read_line_fd(fd, campaign_line)) {
    if (std::optional<Submission> sub = admit(header_line, campaign_line, sink)) {
      service.submit(std::move(*sub), &sink).wait();  // terminal event already streamed
    }
  }
  ::close(fd);
}

// ---------------------------------------------------------------- sockets

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("listen_unix: socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error("listen_unix: socket: " + std::string(std::strerror(errno)));
  }
  ::unlink(path.c_str());  // stale socket from a previous daemon
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen_unix: bind " + path + ": " + err);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen_unix: listen: " + err);
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("connect_unix: socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error("connect_unix: socket: " +
                             std::string(std::strerror(errno)));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect_unix: " + path + ": " + err);
  }
  return fd;
}

bool write_line_fd(int fd, const std::string& line) {
  std::string framed = line;
  framed += '\n';
  const char* data = framed.data();
  std::size_t size = framed.size();
  while (size > 0) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
#else
    const ssize_t n = ::write(fd, data, size);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_line_fd(int fd, std::string& line) {
  line.clear();
  char buf[4096];
  for (;;) {
    const ssize_t peeked = ::recv(fd, buf, sizeof buf, MSG_PEEK);
    if (peeked < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (peeked == 0) return false;  // EOF mid-line: dead peer
    const auto* newline =
        static_cast<const char*>(std::memchr(buf, '\n', static_cast<std::size_t>(peeked)));
    const std::size_t want = newline != nullptr
                                 ? static_cast<std::size_t>(newline - buf) + 1
                                 : static_cast<std::size_t>(peeked);
    ssize_t got = 0;
    do {
      got = ::recv(fd, buf, want, 0);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) return false;
    const bool complete = newline != nullptr && static_cast<std::size_t>(got) == want;
    const std::size_t payload = static_cast<std::size_t>(got) - (complete ? 1 : 0);
    if (payload > json::kMaxDocumentBytes - line.size()) return false;  // over-long line
    line.append(buf, payload);
    if (complete) return true;
  }
}

SocketEventSink::SocketEventSink(int fd) : fd_(fd) {
  timeval timeout{};
  timeout.tv_sec = kEventSendTimeoutMs / 1000;
  timeout.tv_usec = (kEventSendTimeoutMs % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
}

void SocketEventSink::on_event(const std::string& json_lines) {
  if (alive_) alive_ = write_line_fd(fd_, json_lines);
}

}  // namespace sci::exec
