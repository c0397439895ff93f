#include "threads/team.hpp"

#include <stdexcept>
#include <utility>

namespace sci::threads {

namespace {
/// The team whose worker the calling thread is, if any.
thread_local const ThreadTeam* t_member = nullptr;
}  // namespace

ThreadTeam::ThreadTeam(std::size_t size) {
  if (size == 0) throw std::invalid_argument("ThreadTeam: size >= 1");
  workers_.reserve(size);
  for (std::size_t id = 0; id < size; ++id) {
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

ThreadTeam::~ThreadTeam() {
  {
    const std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadTeam::run(const std::function<void(std::size_t)>& region) {
  // Waiting for the active region from inside it would never end.
  if (t_member == this) {
    throw std::logic_error("ThreadTeam::run: nested call from one of the team's workers");
  }
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return !active_; });
  active_ = true;
  region_ = &region;
  running_ = workers_.size();
  ++generation_;
  cv_.notify_all();
  cv_.wait(lock, [this] { return running_ == 0; });
  region_ = nullptr;
  active_ = false;
  const std::exception_ptr error = std::exchange(first_error_, nullptr);
  cv_.notify_all();  // the next waiting caller may start its region
  if (error) std::rethrow_exception(error);
}

void ThreadTeam::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t total = end - begin;
  const std::size_t parties = workers_.size();
  run([&](std::size_t id) {
    // Static chunking, contiguous ranges.
    const std::size_t chunk = (total + parties - 1) / parties;
    const std::size_t lo = begin + id * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

void ThreadTeam::worker_loop(std::size_t id) {
  t_member = this;
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* region = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      region = region_;
    }
    try {
      (*region)(id);
    } catch (...) {
      const std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      const std::lock_guard lock(mutex_);
      if (--running_ == 0) cv_.notify_all();
    }
  }
}

}  // namespace sci::threads
