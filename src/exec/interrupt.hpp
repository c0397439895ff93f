// Cooperative interrupt handling for long-running campaign binaries.
//
// No binary used to install a SIGINT/SIGTERM handler: an interrupted
// resilience_study / latency_study / scibenchd relied entirely on the
// journal's torn-tail healing to survive a ^C. These helpers close that
// gap with the mildest possible mechanism: the handler sets one
// process-wide atomic flag and returns. The CampaignRunner polls the
// flag at every cell claim (CampaignRunnerOptions::interrupt); once it
// is set, remaining cells are marked "interrupted: signal" exactly like
// cell-budget exhaustion -- the journal holds every finished cell
// (appends are flushed record-by-record), the final ProgressSnapshot is
// still written atomically via metrics_path, and the binary exits 3
// ("resume me", the convention the CI smoke jobs already rely on).
//
// The flag is a plain lock-free std::atomic<bool>, so storing it from
// the handler is async-signal-safe; nothing else happens in signal
// context. A second ^C while the flag is already set restores the
// default disposition and re-raises, so a wedged run can still be
// killed the ordinary way.
#pragma once

#include <atomic>

namespace sci::exec {

/// The process-wide interrupt flag; pass it as
/// CampaignRunnerOptions::interrupt so a signal drains the campaign.
[[nodiscard]] std::atomic<bool>* interrupt_flag() noexcept;

/// Installs SIGINT and SIGTERM handlers that set the flag (idempotent).
void install_interrupt_handlers();

[[nodiscard]] bool interrupt_requested() noexcept;

/// The "interrupted, resume me" exit code shared by every campaign
/// binary (resilience_study established the convention; the CI smoke
/// jobs assert it).
inline constexpr int kInterruptedExitCode = 3;

}  // namespace sci::exec
