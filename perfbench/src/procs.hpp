// Child processes of the benchmark: the scibench tools it times and the
// scibenchd daemon it talks to over the daemon's Unix socket.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

/// Runs a tool to completion with stdout to `out_path` and stderr to
/// `out_path`.err. Returns its exit code, or -1 when it could not start
/// or died on a signal.
int run_tool(const std::vector<std::string>& argv, const std::string& out_path);

/// A live scibenchd with its scibench_worker pool. The daemon is asked
/// to drain on SIGTERM and is always waited for; it also dies with the
/// benchmark if the benchmark dies first.
class Daemon {
 public:
  /// Starts the daemon and returns once it reports that its socket is
  /// accepting and its worker fleet is spawned. Throws on failure.
  Daemon(const std::string& bin_dir, const std::string& socket, std::size_t workers);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM, then waits; returns the exit code (3 = drained cleanly).
  int stop();

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
};

/// What one submission over the daemon socket looked like from the client.
struct SubmitOutcome {
  bool done = false;           ///< terminal "done" event received
  double wall_s = 0.0;         ///< connect until "done" (CSVs are on disk)
  double queue_wait_s = 0.0;   ///< submit until "started"
  double client_read_s = 0.0;  ///< time inside read_line_fd
  std::size_t events = 0;
  std::size_t event_bytes = 0;
  std::size_t cells = 0;
  std::size_t executed = 0;
  std::size_t deduped = 0;
  std::size_t failed = 0;
  std::vector<std::string> event_lines;  ///< kept only when the ledger is on
};

/// Submits one campaign envelope and streams events until a terminal
/// one, exactly as scibench_submit does. Spans: "exec.service" around the
/// submission, "obs.json" around each event parse.
SubmitOutcome submit(const std::string& socket, const std::string& envelope,
                     const std::string& samples_csv, const std::string& summary_csv,
                     Ledger& ledger);

}  // namespace perfbench
