#include "stats/parallel.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "threads/team.hpp"

namespace sci::stats {

namespace {

/// The pooled team of `size` workers: created on first use, shared by
/// concurrent callers of that size (ThreadTeam::run waits for the
/// active region; a team of one runs each caller inline), and torn down
/// when the last holder releases it.
std::shared_ptr<threads::ThreadTeam> shared_team(std::size_t size) {
  static std::mutex mutex;
  static std::map<std::size_t, std::weak_ptr<threads::ThreadTeam>> pool;
  const std::lock_guard lock(mutex);
  auto& slot = pool[size];
  if (auto team = slot.lock()) return team;
  auto team = std::make_shared<threads::ThreadTeam>(size);
  slot = team;
  return team;
}

}  // namespace

void policy_partition(const ExecPolicy& policy, std::size_t count,
                      const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t workers = std::min(policy.effective_threads(), count);
  const auto team = shared_team(workers);
  // workers <= count, so every worker's range is non-empty.
  team->run([&](std::size_t worker) {
    body(worker, worker * count / workers, (worker + 1) * count / workers);
  });
}

}  // namespace sci::stats
