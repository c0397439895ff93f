#include "exec/process_pool.hpp"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <stdexcept>

#include "exec/wire.hpp"
#include "obs/json.hpp"

extern char** environ;

namespace sci::exec {

namespace {

/// write() the whole buffer, riding out EINTR and short writes.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool read_line_stream(std::FILE* stream, std::string& line) {
  // One stream lock per line and getc_unlocked from the stdio buffer.
  // POSIX getline would take a runaway line whole before the cap could
  // refuse it.
  line.clear();
  ::flockfile(stream);
  int c = 0;
  while ((c = ::getc_unlocked(stream)) != EOF && c != '\n') {
    if (line.size() == obs::json::kMaxDocumentBytes) break;
    line.push_back(static_cast<char>(c));
  }
  ::funlockfile(stream);
  return c == '\n';
}

ProcessPool::ProcessPool(ProcessPoolOptions options) : options_(std::move(options)) {
  if (options_.worker_path.empty()) {
    throw std::invalid_argument("ProcessPool: worker_path required");
  }
  if (options_.workers == 0) {
    throw std::invalid_argument("ProcessPool: need at least one worker");
  }
  // A worker dying between our liveness check and the job write turns
  // the write into SIGPIPE; we want the EPIPE errno path instead, so
  // the crash is contained and retried rather than fatal.
  ::signal(SIGPIPE, SIG_IGN);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    free_.push_back(spawn());
  }
}

ProcessPool::~ProcessPool() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& worker : free_) destroy(*worker, /*wait_for_exit=*/true);
  free_.clear();
}

std::unique_ptr<ProcessPool::Worker> ProcessPool::spawn() {
  int to_child[2];    // parent writes jobs -> child stdin
  int from_child[2];  // child stdout -> parent reads results
  // O_CLOEXEC is load-bearing: without it every later-spawned worker
  // inherits this worker's parent-side pipe ends, so closing ours would
  // never deliver EOF while a sibling lives (shutdown deadlock). The
  // adddup2 onto stdin/stdout clears the flag for the child's own ends.
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    throw std::runtime_error("ProcessPool: pipe: " + std::string(std::strerror(errno)));
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error("ProcessPool: pipe: " + std::string(std::strerror(errno)));
  }

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, to_child[0]);
  posix_spawn_file_actions_addclose(&actions, to_child[1]);
  posix_spawn_file_actions_addclose(&actions, from_child[0]);
  posix_spawn_file_actions_addclose(&actions, from_child[1]);

  char* const argv[] = {const_cast<char*>(options_.worker_path.c_str()), nullptr};
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, options_.worker_path.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(to_child[0]);
  ::close(from_child[1]);
  if (rc != 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    throw std::runtime_error("ProcessPool: posix_spawn " + options_.worker_path + ": " +
                             std::strerror(rc));
  }

  auto worker = std::make_unique<Worker>();
  worker->pid = pid;
  worker->to_child = to_child[1];
#ifdef F_GETPIPE_SZ
  const int capacity = ::fcntl(to_child[1], F_GETPIPE_SZ);
  if (capacity > 0) worker->pipe_capacity = static_cast<std::size_t>(capacity);
#endif
  worker->from_child = ::fdopen(from_child[0], "r");
  if (worker->from_child == nullptr) {
    destroy(*worker, /*wait_for_exit=*/false);
    ::close(from_child[0]);
    throw std::runtime_error("ProcessPool: fdopen failed");
  }
  workers_spawned_.fetch_add(1, std::memory_order_relaxed);
  return worker;
}

void ProcessPool::destroy(Worker& worker, bool wait_for_exit) {
  if (worker.to_child >= 0) ::close(worker.to_child);  // EOF: worker exits
  if (worker.from_child != nullptr) std::fclose(worker.from_child);
  if (worker.pid > 0) {
    if (!wait_for_exit) ::kill(worker.pid, SIGKILL);
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  worker.to_child = -1;
  worker.from_child = nullptr;
  worker.pid = -1;
}

std::unique_ptr<ProcessPool::Worker> ProcessPool::acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  available_.wait(lock, [&] { return !free_.empty(); });
  std::unique_ptr<Worker> worker = std::move(free_.back());
  free_.pop_back();
  return worker;
}

void ProcessPool::release(std::unique_ptr<Worker> worker) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(worker));
  }
  available_.notify_one();
}

void ProcessPool::replace(std::unique_ptr<Worker> worker, bool wait_for_exit) {
  workers_crashed_.fetch_add(1, std::memory_order_relaxed);
  destroy(*worker, wait_for_exit);
  release(spawn());
}

CellResult ProcessPool::run(const SimBackendOptions& backend, const Config& config,
                            std::uint64_t seed) {
  BatchCell cell{&config, seed, {}};
  run_batch(backend, std::span<BatchCell>(&cell, 1));
  return std::move(cell.result);
}

void ProcessPool::run_batch(const SimBackendOptions& backend, std::span<BatchCell> cells) {
  // Every job line is encoded once, back to back: cells[k]'s line is
  // jobs[at[k], at[k + 1]), so any run of cells is one contiguous write
  // and a re-dispatch resends the same bytes.
  std::string jobs;
  std::vector<std::size_t> at{0};
  for (const BatchCell& cell : cells) {
    jobs += wire::job_to_json(backend, *cell.config, cell.seed);
    jobs += '\n';
    at.push_back(jobs.size());
  }

  std::string reply;
  std::size_t pos = 0;      // first cell without a result
  std::size_t crashes = 0;  // worker deaths on cells[pos] so far
  while (pos < cells.size()) {
    std::unique_ptr<Worker> worker = acquire();
    // The sub-batch fits the empty job pipe, so the write returns even
    // while the worker blocks on a reply we have not read yet. A cell
    // that killed a worker goes alone.
    std::size_t end = pos + 1;
    while (crashes == 0 && end < cells.size() &&
           at[end + 1] - at[pos] <= worker->pipe_capacity) {
      ++end;
    }

    // Replies come back in job order. A worker that died mid-batch
    // flushed every reply before the cell it died on, so those are kept
    // even when the write itself failed.
    (void)write_all(worker->to_child, jobs.data() + at[pos], at[end] - at[pos]);
    std::size_t k = pos;
    std::optional<std::string> parse_error;
    for (; k < end && read_line_stream(worker->from_child, reply); ++k) {
      try {
        cells[k].result = wire::parse_cell_result_json(reply);
      } catch (const std::exception& e) {
        parse_error = e.what();
        break;
      }
    }
    if (k == end) {
      release(std::move(worker));
      pos = end;
      crashes = 0;
      continue;
    }

    if (parse_error) {
      // A worker that prints garbage is as broken as one that died, but
      // its cell is not retried.
      replace(std::move(worker), /*wait_for_exit=*/false);
      cells[k].result = CellResult{};
      cells[k].result.error = "ProcessPool: unparseable worker reply: " + *parse_error;
      pos = k + 1;
      crashes = 0;
      continue;
    }

    // The worker died on cells[k]: reap it, restore pool capacity, and
    // re-dispatch the SAME (config, seed) -- byte-identity for transient
    // kills. The cells after it are re-sent without counting as crashes.
    replace(std::move(worker), /*wait_for_exit=*/true);
    crashes = k == pos ? crashes + 1 : 1;
    pos = k;
    if (crashes > options_.crash_retries) {
      cells[k].result = CellResult{};
      cells[k].result.error = "ProcessPool: cell " + cells[k].config->to_string() +
                              " crashed its worker " + std::to_string(crashes) +
                              " time(s); giving up on this seed";
      pos = k + 1;
      crashes = 0;
    }
  }
}

PoolBackend::PoolBackend(ProcessPool& pool, SimBackendOptions options)
    : pool_(pool), inner_(std::move(options)) {}

std::string PoolBackend::name() const { return inner_.name(); }

std::string PoolBackend::describe() const { return inner_.describe(); }

std::string PoolBackend::identity() const { return inner_.identity(); }

/// Runs a chunk of cells as one pipelined ProcessPool::run_batch.
class PoolBackend::Context final : public BackendContext {
 public:
  explicit Context(PoolBackend& owner) : owner_(owner) {}
  [[nodiscard]] CellResult run(const Config& config, std::uint64_t seed) override {
    return owner_.run(config, seed);
  }
  void run_batch(std::span<BatchCell> cells) override {
    owner_.pool_.run_batch(owner_.inner_.options(), cells);
  }

 private:
  PoolBackend& owner_;
};

std::unique_ptr<BackendContext> PoolBackend::make_context() {
  return std::make_unique<Context>(*this);
}

CellResult PoolBackend::run(const Config& config, std::uint64_t seed) {
  CellResult result = pool_.run(inner_.options(), config, seed);
  if (!result.error.empty()) {
    // Same exception surface as an in-process backend that threw: the
    // runner's retry/containment machinery must not be able to tell
    // the difference.
    throw std::runtime_error(result.error);
  }
  return result;
}

}  // namespace sci::exec
