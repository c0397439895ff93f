// Process-wide ThreadTeam pooling for ExecPolicy consumers.
//
// Spawning a thread costs more than most grouped-CI workloads, so teams
// are shared: one live team per size, handed out as shared_ptr and torn
// down when the last holder releases it. Everything here is
// coarse-grained fan-out plumbing; the deterministic fine-grained lane
// sharding lives in BootstrapEngine.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "stats/exec_policy.hpp"

namespace sci::threads {
class ThreadTeam;
}

namespace sci::stats {

/// The pooled team of `size` workers, the caller among them. Creates it
/// on first use; concurrent callers of the same size share one team and
/// take turns on it (ThreadTeam::run waits for the active region),
/// except that a team of one runs every caller inline at once.
[[nodiscard]] std::shared_ptr<threads::ThreadTeam> shared_team(std::size_t size);

/// Runs body(worker, lo, hi) over a static contiguous partition of
/// [0, count): worker w gets [w*count/W, (w+1)*count/W) on the pooled
/// team of W = min(threads, count) workers, so a serial policy or
/// count <= 1 is one call on the calling thread. Exceptions from workers
/// propagate (first one wins).
void policy_partition(const ExecPolicy& policy, std::size_t count,
                      const std::function<void(std::size_t worker, std::size_t lo,
                                               std::size_t hi)>& body);

}  // namespace sci::stats
