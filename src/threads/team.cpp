#include "threads/team.hpp"

#include <stdexcept>
#include <utility>

namespace sci::threads {

namespace {
/// The team whose spawned worker the calling thread is, if any.
thread_local const ThreadTeam* t_member = nullptr;
}  // namespace

ThreadTeam::ThreadTeam(std::size_t size) {
  if (size == 0) throw std::invalid_argument("ThreadTeam: size >= 1");
  workers_.reserve(size - 1);
  for (std::size_t id = 1; id < size; ++id) {
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
  if (workers_.empty()) {
    region(0);
    return;
  }
  std::unique_lock lock(mutex_);
  // Waiting for the active region from inside it would never end.
  if (t_member == this || (active_ && caller_ == std::this_thread::get_id())) {
    throw std::logic_error("ThreadTeam::run: nested call from inside the team's region");
  }
  cv_.wait(lock, [this] { return !active_; });
  active_ = true;
  caller_ = std::this_thread::get_id();
  region_ = &region;
  running_ = workers_.size();
  ++generation_;
  cv_.notify_all();
  lock.unlock();

  std::exception_ptr error;
  try {
    region(0);
  } catch (...) {
    error = std::current_exception();
  }

  lock.lock();
  if (!first_error_) first_error_ = error;
  cv_.wait(lock, [this] { return running_ == 0; });
  region_ = nullptr;
  active_ = false;
  error = std::exchange(first_error_, nullptr);
  cv_.notify_all();  // the next waiting caller may start its region
  if (error) std::rethrow_exception(error);
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
    std::exception_ptr error;
    try {
      (*region)(id);
    } catch (...) {
      error = std::current_exception();
    }
    const std::lock_guard lock(mutex_);
    if (!first_error_) first_error_ = error;
    if (--running_ == 0) cv_.notify_all();
  }
}

}  // namespace sci::threads
