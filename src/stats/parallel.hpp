// Coarse-grained fan-out for ExecPolicy consumers: grouped summaries,
// the detector's series and change-point scans, and quantile-regression
// refits. Threads come from a process-wide pool of ThreadTeams, one
// live team per size, because spawning a thread costs more than most
// grouped workloads.
#pragma once

#include <cstddef>
#include <functional>

#include "stats/exec_policy.hpp"

namespace sci::stats {

/// Runs body(worker, lo, hi) over a static contiguous partition of
/// [0, count): worker w gets [w*count/W, (w+1)*count/W) on the pooled
/// team of W = min(threads, count) workers, the caller among them, so a
/// serial policy or count <= 1 is one call on the calling thread.
/// Concurrent callers at the same W share one team and take turns on
/// it. Exceptions from workers propagate (first one wins).
void policy_partition(const ExecPolicy& policy, std::size_t count,
                      const std::function<void(std::size_t worker, std::size_t lo,
                                               std::size_t hi)>& body);

}  // namespace sci::stats
