// A fault-tolerant campaign with crash-safe checkpoint/resume: the
// workflow for measurement runs that are too long (or too flaky) to
// assume a clean single-shot execution.
//
//   declare   system x message_bytes grid, with fault-injected machine
//             variants ("dora" vs "dora+chaos") as a first-class factor
//   measure   CampaignRunner with a journal: every finished cell is
//             appended to an on-disk log; killing the process and
//             rerunning with the same --journal resumes exactly where
//             it stopped and exports byte-identical CSVs
//   contain   backend failures are retried (deterministic attempt
//             seeds) and surviving failures are accounted per cell in
//             the CSV header, not fatal
//
// Exit codes: 0 = campaign complete, 3 = interrupted by --budget (the
// CI smoke job uses --budget as a deterministic stand-in for `kill`).
//
//   resilience_study [--journal PATH] [--csv PATH] [--workers N]
//                    [--budget K] [--faults] [--metrics PATH]
//                    [--heartbeat SECONDS] [--stopping fixed|ci:WIDTH]
//
// --stopping ci:W replaces the fixed 3 replications per cell with
// sequential stopping (min 3, max 24 reps, median CI half-width target
// W); journaled resume works identically -- stop decisions are recorded
// in the journal and re-verified on replay.
//
// --metrics writes the runner's final ProgressSnapshot (completed,
// failed, retried, journal hits, per-worker throughput) as canonical
// JSON -- also on interruption, so an operator can see how far a killed
// campaign got. --heartbeat prints one progress line to stderr every
// SECONDS while running.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/interrupt.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"

using namespace sci;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--journal PATH] [--csv PATH] [--workers N] [--budget K] "
               "[--faults] [--metrics PATH] [--heartbeat SECONDS] "
               "[--stopping fixed|ci:WIDTH]\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal_path;
  std::string csv_path;
  std::string metrics_path;
  double heartbeat_s = 0.0;
  std::size_t workers = 2;
  std::size_t budget = 0;
  bool faults = false;
  double ci_target = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--journal") {
      journal_path = value();
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--workers") {
      workers = static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (arg == "--budget") {
      budget = static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg == "--metrics") {
      metrics_path = value();
    } else if (arg == "--heartbeat") {
      heartbeat_s = std::strtod(value(), nullptr);
    } else if (arg == "--stopping") {
      const std::string policy = value();
      if (policy.rfind("ci:", 0) == 0) {
        ci_target = std::strtod(policy.c_str() + 3, nullptr);
        if (!(ci_target > 0.0)) return usage(argv[0]);
      } else if (policy != "fixed") {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }

  exec::CampaignSpec spec;
  spec.name = "resilience_study";
  spec.description = "fault-injected latency campaign with journaled resume";
  spec.base.set("placement", "two ranks on distinct nodes, scattered allocation")
      .set("fault.model", faults ? "dora+chaos: 2% drop w/ 50us retransmit, "
                                   "15% link degrade x3, 10% straggler x4"
                                 : "none");
  spec.base.synchronization_method = "none (two-sided pingpong, rank-0 clock)";
  spec.factors.push_back(
      {"system", faults ? std::vector<std::string>{"dora", "dora+chaos"}
                        : std::vector<std::string>{"dora"}});
  spec.factors.push_back({"message_bytes", {"64", "1024", "16384"}});
  spec.replications = 3;
  spec.seed = 7;
  if (ci_target > 0.0) {
    spec.stopping = exec::StoppingPolicy::sequential_ci(ci_target, 3, 24);
  }

  exec::SimBackendOptions bopts;
  bopts.kernel = exec::SimKernel::kPingPong;
  bopts.samples = 2000;
  bopts.warmup = 16;
  bopts.scale = 1e6;
  bopts.unit = "us";
  exec::SimBackend backend(bopts);

  // ^C / SIGTERM drains the campaign cooperatively: finished cells are
  // already journaled, the metrics snapshot still lands, and the exit-3
  // resume convention below covers signals exactly like --budget.
  exec::install_interrupt_handlers();

  exec::StderrHeartbeat heartbeat;
  exec::CampaignRunnerOptions ropts;
  ropts.workers = workers;
  ropts.journal_path = journal_path;
  ropts.cell_budget = budget;
  ropts.max_attempts = 2;
  ropts.metrics_path = metrics_path;
  ropts.samples_csv = csv_path;  // written by run(), interrupted or not
  ropts.interrupt = exec::interrupt_flag();
  if (heartbeat_s > 0.0) {
    ropts.progress = &heartbeat;
    ropts.heartbeat_period_s = heartbeat_s;
  }
  exec::CampaignRunner runner(backend, exec::Campaign(spec), ropts);
  const exec::CampaignResult result = runner.run();

  std::printf("cells=%zu executed=%zu journal_hits=%zu cache_hits=%zu failed=%zu "
              "interrupted=%zu retries=%zu\n",
              result.cells.size(), result.executed, result.journal_hits,
              result.cache_hits, result.failed, result.interrupted, result.retries);
  if (result.sequential) {
    std::size_t converged = 0;
    for (const auto& info : result.stopping) converged += info.converged ? 1 : 0;
    std::printf("stopping: %zu/%zu configs converged over %zu rounds\n", converged,
                result.stopping.size(), result.rounds);
    for (std::size_t c = 0; c < result.stopping.size(); ++c) {
      const auto& info = result.stopping[c];
      std::printf("  config %zu: %zu reps (%s)\n", c, info.reps,
                  info.stop_reason.c_str());
    }
  }

  if (!csv_path.empty()) {
    std::printf("samples -> %s\n", csv_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::printf("metrics -> %s\n", metrics_path.c_str());
  }
  if (result.interrupted > 0) {
    std::printf("interrupted: rerun with the same --journal to resume\n");
    return exec::kInterruptedExitCode;
  }
  return result.failed > 0 ? 2 : 0;
}
