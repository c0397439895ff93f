// Coarse-grained fan-out for ExecPolicy consumers: grouped summaries,
// the detector's series and change-point scans, and quantile-regression
// refits. Each call forks a ThreadTeam of its own and joins it before
// returning, so concurrent callers never wait on each other.
#pragma once

#include <cstddef>
#include <functional>

#include "stats/exec_policy.hpp"

namespace sci::stats {

/// Runs body(worker, lo, hi) over a static contiguous partition of
/// [0, count): worker w gets [w*count/W, (w+1)*count/W) on a team of
/// W = min(threads, count) workers built for this call, the caller among
/// them, so a serial policy or count <= 1 is one call on the calling
/// thread and spawns no thread. Exceptions from workers propagate (first
/// one wins).
void policy_partition(const ExecPolicy& policy, std::size_t count,
                      const std::function<void(std::size_t worker, std::size_t lo,
                                               std::size_t hi)>& body);

}  // namespace sci::stats
