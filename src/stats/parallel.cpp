#include "stats/parallel.hpp"

#include <algorithm>

#include "threads/team.hpp"

namespace sci::stats {

void policy_partition(const ExecPolicy& policy, std::size_t count,
                      const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t workers = std::min(policy.effective_threads(), count);
  threads::ThreadTeam team(workers);
  // workers <= count, so every worker's range is non-empty.
  team.run([&](std::size_t worker) {
    body(worker, worker * count / workers, (worker + 1) * count / workers);
  });
}

}  // namespace sci::stats
