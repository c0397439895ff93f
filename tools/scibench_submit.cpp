// scibench_submit: client for the scibenchd campaign service.
//
// Reads one "scibench.campaign" envelope line (a file or stdin), sends
// it to the daemon with the run options, and streams the daemon's event
// lines to stdout until the job reaches a terminal state.
//
// Extras that make the byte-identity contract checkable from a shell:
//   --emit-demo NAME   print a ready-made envelope line and exit
//                      (pingpong | pingpong-seq | reduce | faulty | crashy)
//   --local            skip the daemon: run the envelope in-process
//                      through CampaignRunner with the same options.
//                      `cmp` the CSVs of --local against the daemon's
//                      to verify byte-identical results at any worker
//                      count (the invariant CI's daemon-smoke job pins).
//
// Exit codes: 0 done (no failed cells), 1 done with failures or run
// error, 2 rejected/usage, 3 interrupted (journal resumable).
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/format.hpp"
#include "exec/interrupt.hpp"
#include "exec/runner.hpp"
#include "exec/service.hpp"
#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"
#include "obs/json.hpp"

namespace exec = sci::exec;
namespace json = sci::obs::json;
namespace core = sci::core;

namespace {

std::string demo_envelope(const std::string& name) {
  exec::CampaignSpec spec;
  exec::SimBackendOptions backend;
  spec.base.name = "scibenchd demo";
  spec.base.description = "wire-format demo campaign";
  spec.base.environment["transport"] = "scibenchd unix socket";
  backend.kernel = exec::SimKernel::kPingPong;
  backend.samples = 200;
  backend.scale = 1e6;
  backend.unit = "us";
  if (name == "pingpong" || name == "pingpong-seq") {
    spec.name = "demo-pingpong";
    spec.factors.push_back({"message_bytes", {"1024", "4096", "16384"}});
    spec.replications = 5;
    if (name == "pingpong-seq") {
      spec.stopping = exec::StoppingPolicy::sequential_ci(0.05, 3, 10);
    }
  } else if (name == "reduce") {
    // A second backend identity: workers that just ran pingpong jobs
    // must switch their warm context to reduce byte-exactly.
    spec.name = "demo-reduce";
    backend.kernel = exec::SimKernel::kReduce;
    backend.iterations = 20;
    spec.factors.push_back({"processes", {"4", "8", "16"}});
    spec.replications = 4;
  } else if (name == "faulty") {
    // One grid column aborts the worker: exercises crash containment.
    spec.name = "demo-faulty";
    spec.factors.push_back({"message_bytes", {"1024", "4096"}});
    spec.factors.push_back({"worker_fault", {"none", "abort"}});
    spec.replications = 3;
  } else if (name == "crashy") {
    // First worker to see $SCIBENCH_WORKER_KILL_FILE dies mid-cell.
    spec.name = "demo-crashy";
    spec.factors.push_back({"message_bytes", {"1024", "4096", "16384"}});
    spec.factors.push_back({"worker_fault", {"kill_once"}});
    spec.replications = 5;
  } else {
    throw std::runtime_error("unknown demo \"" + name +
                             "\" (pingpong | pingpong-seq | reduce | faulty | crashy)");
  }
  return exec::wire::campaign_to_json(spec, backend);
}

int run_local(const exec::wire::CampaignEnvelope& envelope,
              const exec::Submission& sub, bool quiet) {
  exec::SimBackend backend(envelope.backend);
  exec::CampaignRunnerOptions ropts;
  ropts.journal_path = sub.journal_path;
  ropts.max_attempts = sub.max_attempts;
  ropts.metrics_path = sub.metrics_path;
  ropts.interrupt = exec::interrupt_flag();
  exec::CampaignRunner runner(backend, exec::Campaign(envelope.spec), ropts);
  const exec::CampaignResult result = runner.run();
  if (!sub.samples_csv.empty()) result.samples_dataset().save_csv(sub.samples_csv);
  if (!sub.summary_csv.empty()) result.summary_dataset().save_csv(sub.summary_csv);
  if (!quiet) {
    std::fprintf(stderr, "local: %zu cells, %zu executed, %zu failed\n",
                 result.cells.size(), result.executed, result.failed);
  }
  if (result.interrupted > 0) return exec::kInterruptedExitCode;
  return result.failed > 0 ? 1 : 0;
}

void print_usage() {
  std::fprintf(stderr,
               "usage: scibench_submit (--socket PATH | --local) "
               "[--campaign FILE|-] [--priority N] [--journal PATH]\n"
               "         [--samples-csv PATH] [--summary-csv PATH] "
               "[--metrics PATH] [--max-attempts N] [--heartbeat S]\n"
               "         [--quiet] | --emit-demo NAME\n");
}

/// Parses the whole of `text` as a T in [lo, hi] -- the daemon's limits
/// for the matching header field -- or exits 2 with the usage line: a
/// partial token ("3x"), junk, a sign on an unsigned value and a value
/// out of range are all refused before anything runs.
template <typename T>
T parse_option(const std::string& option, const char* text, T lo, T hi) {
  if (const auto value = core::parse_number(text, lo, hi)) return *value;
  std::fprintf(stderr, "scibench_submit: %s: invalid value \"%s\"\n", option.c_str(), text);
  print_usage();
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string campaign_file = "-";
  std::string header = "{\"op\": \"submit\"";
  bool local = false;
  bool quiet = false;
  exec::Submission sub;  // only used by --local; mirrors the header

  const auto add_str = [&](const char* key, const std::string& value) {
    header += ", \"";
    header += key;
    header += "\": " + json::quoted(value);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "scibench_submit: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--emit-demo") {
      try {
        std::printf("%s\n", demo_envelope(next()).c_str());
        return 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "scibench_submit: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--campaign") {
      campaign_file = next();
    } else if (arg == "--local") {
      local = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--priority") {
      sub.priority = parse_option(arg, next(), INT_MIN, INT_MAX);
      header += ", \"priority\": " + std::to_string(sub.priority);
    } else if (arg == "--journal") {
      sub.journal_path = next();
      add_str("journal", sub.journal_path);
    } else if (arg == "--samples-csv") {
      sub.samples_csv = next();
      add_str("samples_csv", sub.samples_csv);
    } else if (arg == "--summary-csv") {
      sub.summary_csv = next();
      add_str("summary_csv", sub.summary_csv);
    } else if (arg == "--metrics") {
      sub.metrics_path = next();
      add_str("metrics", sub.metrics_path);
    } else if (arg == "--max-attempts") {
      sub.max_attempts = parse_option<std::size_t>(arg, next(), 0, exec::kMaxAttempts);
      header += ", \"max_attempts\": " + json::dump_size(sub.max_attempts);
    } else if (arg == "--heartbeat") {
      sub.heartbeat_s = parse_option(arg, next(), 0.0, exec::kMaxHeartbeatS);
      header += ", \"heartbeat_s\": " + json::dump_number(sub.heartbeat_s);
    } else {
      print_usage();
      return arg == "--help" ? 0 : 2;
    }
  }
  header += "}";

  // Read the envelope line.
  std::string envelope_line;
  if (campaign_file == "-") {
    if (!std::getline(std::cin, envelope_line)) {
      std::fprintf(stderr, "scibench_submit: no envelope on stdin\n");
      return 2;
    }
  } else {
    std::ifstream is(campaign_file, std::ios::binary);
    if (!is || !std::getline(is, envelope_line)) {
      std::fprintf(stderr, "scibench_submit: cannot read %s\n",
                   campaign_file.c_str());
      return 2;
    }
  }

  if (local) {
    exec::install_interrupt_handlers();
    try {
      return run_local(exec::wire::parse_campaign_json(envelope_line), sub, quiet);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scibench_submit: %s\n", e.what());
      return 1;
    }
  }

  if (socket_path.empty()) {
    std::fprintf(stderr, "scibench_submit: --socket or --local is required\n");
    return 2;
  }

  int fd = -1;
  try {
    fd = exec::connect_unix(socket_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scibench_submit: %s\n", e.what());
    return 2;
  }
  if (!exec::write_line_fd(fd, header) || !exec::write_line_fd(fd, envelope_line)) {
    std::fprintf(stderr, "scibench_submit: daemon hung up during submit\n");
    ::close(fd);
    return 2;
  }

  int exit_code = 1;  // pessimistic: overwritten by a terminal event
  std::string line;
  while (exec::read_line_fd(fd, line)) {
    if (!quiet) std::printf("%s\n", line.c_str());
    try {
      const json::Value event = json::parse(line);
      const std::string kind = event.at("event").as_string();
      if (kind == "done") {
        const bool failed = event.at("failed").as_size() > 0;
        const bool interrupted = event.at("interrupted").as_size() > 0;
        exit_code = interrupted ? exec::kInterruptedExitCode : (failed ? 1 : 0);
        break;
      }
      if (kind == "rejected") {
        exit_code = 2;
        break;
      }
      if (kind == "error") {
        exit_code = 1;
        break;
      }
      if (kind == "cancelled") {
        exit_code = exec::kInterruptedExitCode;
        break;
      }
    } catch (const std::exception&) {
      // Not an event line; keep streaming.
    }
  }
  ::close(fd);
  return exit_code;
}
