// A fixed team of worker threads with fork-join semantics -- the
// minimal OpenMP-parallel-region substrate the measurement layer needs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sci::threads {

/// Spawns `size` long-lived workers; run() executes a region on all of
/// them (worker 0..size-1) and joins. Exceptions from workers propagate
/// out of run() (first one wins). Concurrent callers take turns: a
/// second thread's run() waits until the active region has joined. A
/// run() from one of the team's own workers throws std::logic_error,
/// since it would wait on the region it is part of.
class ThreadTeam {
 public:
  explicit ThreadTeam(std::size_t size);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs `region(thread_id)` on every worker; returns when all finish.
  void run(const std::function<void(std::size_t)>& region);

  /// Static-chunked parallel for over [begin, end).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  const std::function<void(std::size_t)>* region_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t running_ = 0;
  bool active_ = false;  ///< a caller's region is running or joining
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace sci::threads
