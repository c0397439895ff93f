// scibench_worker: one sandboxed cell executor behind the process pool.
//
// Protocol (exec/wire.hpp): read one "scibench.job" line from stdin,
// run the cell, write one "scibench.cell" line to stdout, repeat until
// stdin closes. The protocol is stateless on purpose -- every job line
// carries the full backend options, so any worker can run any job and a
// crashed worker's job re-dispatches elsewhere with the same seed and
// the same bytes.
//
// The process keeps one warm (SimBackend, make_context()) pair and runs
// every job through it while consecutive jobs carry the same backend
// options, so a campaign's cells reuse their simulation worlds instead
// of rebuilding one per job (contexts are byte-identical to the
// stateless run(), pinned by test_exec_reuse). Different options replace
// the pair, so the worker holds the worlds of one backend at a time. A
// job that throws drops the pair; the next job starts fresh. Lines on
// either pipe are bounded (exec::read_line_stream).
//
// A backend exception becomes an error reply (the parent re-throws it,
// so the runner's retry/containment path is identical to an in-process
// throwing backend). A crash -- abort(), segfault, SIGKILL -- kills
// only this process; the parent observes EOF on the pipe and respawns.
//
// Fault drill: a campaign factor named "worker_fault" lets the tests
// and the CI smoke job exercise crash containment deterministically:
//   abort      call abort() (SIGABRT, core-dump class crash)
//   exit       _exit(9) without a reply (silent death)
//   kill_once  if the file named by $SCIBENCH_WORKER_KILL_FILE exists,
//              unlink it and _exit(9) -- exactly one worker dies
//              mid-campaign, emulating an external SIGKILL; the retry
//              then runs the same cell to completion.
// SimBackend ignores unknown factors, so the same campaign run
// in-process produces identical samples -- which is what lets the tests
// compare daemon CSVs against in-process CSVs even in the drill.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "exec/process_pool.hpp"
#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"

namespace exec = sci::exec;

namespace {

void maybe_inject_fault(const exec::Config& config) {
  const std::string* fault = config.find_level("worker_fault");
  if (fault == nullptr || *fault == "none") return;
  if (*fault == "abort") std::abort();
  if (*fault == "exit") _exit(9);
  if (*fault == "kill_once") {
    const char* sentinel = std::getenv("SCIBENCH_WORKER_KILL_FILE");
    if (sentinel != nullptr && ::unlink(sentinel) == 0) _exit(9);
  }
}

}  // namespace

int main() {
  std::optional<exec::SimBackend> backend;
  std::unique_ptr<exec::BackendContext> context;  // refers to *backend
  std::string line;
  while (exec::read_line_stream(stdin, line)) {
    exec::CellResult reply;
    try {
      const exec::wire::JobSpec job = exec::wire::parse_job_json(line);
      maybe_inject_fault(job.config);
      if (!backend || backend->options() != job.backend) {
        context.reset();
        backend.emplace(job.backend);
        context = backend->make_context();
      }
      reply = context->run(job.config, job.seed);
    } catch (const std::exception& e) {
      context.reset();
      backend.reset();
      reply = exec::CellResult{};
      reply.error = e.what();
    }

    const std::string out = exec::wire::cell_result_to_json(reply);
    if (std::fputs(out.c_str(), stdout) == EOF) return 1;
    if (std::fputc('\n', stdout) == EOF) return 1;
    if (std::fflush(stdout) != 0) return 1;
  }
  // The parent closed the pipe; anything else is a broken job stream.
  return std::feof(stdin) != 0 ? 0 : 1;
}
