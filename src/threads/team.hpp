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

/// A fixed team of `size` workers in which, as in OpenMP, the thread
/// calling run() is worker 0 and `size - 1` long-lived threads are
/// workers 1..size-1. A team of one owns no thread and takes no lock:
/// run() just calls region(0), so its callers never wait on each other.
/// In a larger team, exceptions from any worker, region(0) included,
/// propagate out of run() once every worker has returned (first one
/// wins); concurrent callers take turns; and a run() from any thread
/// inside the team's region throws std::logic_error, since it would
/// wait on the region it is part of.
class ThreadTeam {
 public:
  explicit ThreadTeam(std::size_t size);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Runs `region(thread_id)` for every id in [0, size()), id 0 on the
  /// calling thread; returns when all finish.
  void run(const std::function<void(std::size_t)>& region);

 private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;  ///< workers 1..size-1
  std::mutex mutex_;
  std::condition_variable cv_;
  const std::function<void(std::size_t)>* region_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t running_ = 0;  ///< spawned workers still in the region
  bool active_ = false;      ///< a caller's region is running or joining
  std::thread::id caller_;   ///< worker 0 while active_
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace sci::threads
