#include "exec/service.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

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

}  // namespace

CampaignService::CampaignService(ProcessPool& pool, ServiceOptions options)
    : pool_(pool), options_(options) {
  service_thread_ = std::thread([this] { service_loop(); });
}

CampaignService::~CampaignService() {
  stop();
  if (service_thread_.joinable()) service_thread_.join();
}

void CampaignService::emit(ServiceEventSink* sink, const std::string& line) {
  if (sink != nullptr) sink->on_event(line);
}

std::uint64_t CampaignService::submit(Submission submission, ServiceEventSink* sink) {
  std::uint64_t id = 0;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_job_id_++;
    if (stopping_) {
      rejected = true;
      metrics_.jobs_rejected += 1;
      JobOutcome outcome;
      outcome.job_id = id;
      outcome.error = "service is stopping";
      outcomes_.emplace(id, std::move(outcome));
    } else {
      metrics_.jobs_submitted += 1;
      // Under the lock: the service thread cannot pop the job, and
      // write "started" to the same sink, before "queued" is out.
      emit(sink, "{\"event\": \"queued\", \"job\": " + json::dump_size(id) +
                     ", \"priority\": " + std::to_string(submission.priority) + "}");
      QueuedJob job;
      job.id = id;
      job.priority = submission.priority;
      job.submission = std::move(submission);
      job.sink = sink;
      queue_.push(std::move(job));
      if (queue_.size() > metrics_.queue_peak) metrics_.queue_peak = queue_.size();
    }
  }
  if (rejected) {
    emit(sink, "{\"event\": \"rejected\", \"job\": " + json::dump_size(id) +
                   ", \"error\": " + json::quoted("service is stopping") + "}");
    done_cv_.notify_all();
    return id;
  }
  queue_cv_.notify_one();
  return id;
}

JobOutcome CampaignService::wait(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return outcomes_.count(job_id) != 0; });
  return outcomes_.at(job_id);
}

void CampaignService::stop() {
  std::vector<QueuedJob> cancelled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && queue_.empty()) {
      queue_cv_.notify_all();
      return;
    }
    stopping_ = true;
    while (!queue_.empty()) {
      cancelled.push_back(queue_.top());
      queue_.pop();
    }
  }
  for (auto& job : cancelled) {
    JobOutcome outcome;
    outcome.job_id = job.id;
    outcome.error = "cancelled: service stopping";
    emit(job.sink,
         "{\"event\": \"cancelled\", \"job\": " + json::dump_size(job.id) + "}");
    finish(job.id, std::move(outcome));
  }
  queue_cv_.notify_all();
}

obs::DaemonMetrics CampaignService::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::DaemonMetrics m = metrics_;
  m.workers_spawned = pool_.workers_spawned();
  m.workers_crashed = pool_.workers_crashed();
  return m;
}

void CampaignService::finish(std::uint64_t job_id, JobOutcome outcome) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.jobs_completed += outcome.ran ? 1 : 0;
    metrics_.jobs_with_failures += (outcome.ran && outcome.failed > 0) ? 1 : 0;
    metrics_.cells_executed += outcome.executed;
    metrics_.cells_deduped += outcome.deduped;
    metrics_.cells_journal_replayed += outcome.journal_hits;
    metrics_.cells_failed += outcome.failed;
    metrics_.cells_interrupted += outcome.interrupted;
    outcomes_[job_id] = std::move(outcome);
  }
  done_cv_.notify_all();
}

void CampaignService::service_loop() {
  for (;;) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = queue_.top();
      queue_.pop();
    }
    run_job(std::move(job));
  }
}

void CampaignService::run_job(QueuedJob job) {
  ServiceEventSink* sink = job.sink;
  // Cell events arrive on runner worker threads and heartbeats on the
  // monitor thread; serialize them so the sink sees one line at a time.
  std::mutex emit_mutex;
  const auto emit_line = [&](const std::string& line) {
    if (sink == nullptr) return;
    std::lock_guard<std::mutex> lock(emit_mutex);
    sink->on_event(line);
  };

  JobOutcome outcome;
  outcome.job_id = job.id;
  const Submission& sub = job.submission;

  try {
    Campaign campaign(sub.spec);  // validates; invalid specs are rejected below

    emit_line("{\"event\": \"started\", \"job\": " + json::dump_size(job.id) +
              ", \"campaign\": " + json::quoted(sub.spec.name) +
              ", \"cells\": " + json::dump_size(campaign.cell_count()) + "}");

    PoolBackend backend(pool_, sub.backend);
    // The runner borrows the cross-job cache of jobs with equal options.
    auto cache = std::find_if(caches_.begin(), caches_.end(),
                              [&](const auto& c) { return c.first == sub.backend; });
    if (cache == caches_.end()) {
      cache = caches_.emplace(caches_.end(), std::piecewise_construct,
                              std::forward_as_tuple(sub.backend), std::tuple<>());
    }
    EventProgressSink progress(job.id, emit_line);
    CampaignRunnerOptions ropts;
    ropts.workers = pool_.worker_count();  // saturates the fleet; this thread is worker 0
    ropts.journal_path = sub.journal_path;
    ropts.max_attempts = sub.max_attempts;
    ropts.cell_budget = sub.cell_budget;
    ropts.metrics_path = sub.metrics_path;
    ropts.interrupt = options_.interrupt;
    ropts.progress = &progress;
    ropts.heartbeat_period_s = sub.heartbeat_s;

    CampaignRunner runner(backend, std::move(campaign), ropts, &cache->second);
    const CampaignResult result = runner.run();

    if (!sub.samples_csv.empty()) result.samples_dataset().save_csv(sub.samples_csv);
    if (!sub.summary_csv.empty()) result.summary_dataset().save_csv(sub.summary_csv);

    outcome.ran = true;
    outcome.cells = result.cells.size();
    outcome.executed = result.executed;
    outcome.deduped = result.cache_hits;
    outcome.journal_hits = result.journal_hits;
    outcome.failed = result.failed;
    outcome.interrupted = result.interrupted;
    outcome.retries = result.retries;
    outcome.rounds = result.rounds;
    outcome.sequential = result.sequential;

    std::string line = "{\"event\": \"done\", \"job\": " + json::dump_size(job.id);
    line += ", \"cells\": " + json::dump_size(outcome.cells);
    line += ", \"executed\": " + json::dump_size(outcome.executed);
    line += ", \"deduped\": " + json::dump_size(outcome.deduped);
    line += ", \"journal_hits\": " + json::dump_size(outcome.journal_hits);
    line += ", \"failed\": " + json::dump_size(outcome.failed);
    line += ", \"interrupted\": " + json::dump_size(outcome.interrupted);
    line += ", \"retries\": " + json::dump_size(outcome.retries);
    line += ", \"rounds\": " + json::dump_size(outcome.rounds);
    line += ", \"sequential\": ";
    line += outcome.sequential ? "true" : "false";
    line += "}";
    emit_line(line);
  } catch (const std::invalid_argument& e) {
    // The spec itself is broken: admission failure.
    outcome.ran = false;
    outcome.error = e.what();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      metrics_.jobs_rejected += 1;
    }
    emit_line("{\"event\": \"rejected\", \"job\": " + json::dump_size(job.id) +
              ", \"error\": " + json::quoted(outcome.error) + "}");
  } catch (const std::exception& e) {
    // The run itself failed (journal mismatch, unwritable CSV...).
    outcome.ran = false;
    outcome.error = e.what();
    emit_line("{\"event\": \"error\", \"job\": " + json::dump_size(job.id) +
              ", \"error\": " + json::quoted(outcome.error) + "}");
  }

  finish(job.id, std::move(outcome));
}

// ------------------------------------------------------------- clients

namespace {

/// The submit header's "priority": an integer in int's range. The
/// range check comes before the cast, which is undefined for NaN (a
/// JSON null) and for values outside the range.
int header_priority(const json::Value& value) {
  const double p = value.as_number();
  if (!(p >= INT_MIN && p <= INT_MAX) || p != std::trunc(p)) {
    throw std::invalid_argument("submit header: \"priority\" must be an integer in [" +
                                std::to_string(INT_MIN) + ", " + std::to_string(INT_MAX) +
                                "]");
  }
  return static_cast<int>(p);
}

/// The submit header's "heartbeat_s": finite seconds in [0, kMaxHeartbeatS].
double header_heartbeat(const json::Value& value) {
  const double seconds = value.as_number();
  if (!(seconds >= 0.0 && seconds <= kMaxHeartbeatS)) {
    throw std::invalid_argument("submit header: \"heartbeat_s\" must be in [0, " +
                                json::dump_number(kMaxHeartbeatS) + "] seconds");
  }
  return seconds;
}

/// The submit header's "max_attempts": an integer in [0, kMaxAttempts]
/// (0 runs once, like 1).
std::size_t header_max_attempts(const json::Value& value) {
  const std::size_t attempts = value.as_size();
  if (attempts > kMaxAttempts) {
    throw std::invalid_argument("submit header: \"max_attempts\" must be at most " +
                                std::to_string(kMaxAttempts));
  }
  return attempts;
}

}  // namespace

void serve_client(CampaignService& service, int fd) {
  std::string header_line;
  std::string campaign_line;
  SocketEventSink sink(fd);  // a client that stops reading is muted
  if (read_line_fd(fd, header_line) && read_line_fd(fd, campaign_line)) {
    try {
      const json::Value header = json::parse(header_line);
      if (header.at("op").as_string() != "submit") {
        throw std::runtime_error("unknown op \"" + header.at("op").as_string() + "\"");
      }
      const wire::CampaignEnvelope envelope = wire::parse_campaign_json(campaign_line);

      Submission sub;
      sub.spec = envelope.spec;
      sub.backend = envelope.backend;
      const auto str = [&](const char* key) {
        const json::Value* v = header.find(key);
        return v == nullptr ? std::string() : v->as_string();
      };
      if (const json::Value* v = header.find("priority")) sub.priority = header_priority(*v);
      sub.journal_path = str("journal");
      sub.samples_csv = str("samples_csv");
      sub.summary_csv = str("summary_csv");
      sub.metrics_path = str("metrics");
      if (const json::Value* v = header.find("max_attempts")) {
        sub.max_attempts = header_max_attempts(*v);
      }
      if (const json::Value* v = header.find("heartbeat_s")) {
        sub.heartbeat_s = header_heartbeat(*v);
      }

      const std::uint64_t id = service.submit(std::move(sub), &sink);
      (void)service.wait(id);  // terminal event already streamed
    } catch (const std::exception& e) {
      write_line_fd(fd, "{\"event\": \"rejected\", \"job\": 0, \"error\": " +
                            json::quoted(e.what()) + "}");
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
