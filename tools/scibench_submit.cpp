// scibench_submit: client for the scibenchd campaign service.
//
// Reads one "scibench.campaign" envelope line (a file or stdin), sends
// it to the daemon after a submit header built from the run options
// (wire::submit_header_to_json), and streams the daemon's event lines
// to stdout until the job reaches a terminal state.
//
// Extras that make the byte-identity contract checkable from a shell:
//   --emit-demo NAME   print a ready-made envelope line and exit
//                      (pingpong | pingpong-seq | reduce | faulty | crashy)
//   --local            skip the daemon: parse the same two lines and
//                      run them through the daemon's own job body
//                      (exec::admit, exec::run_job) with an in-process
//                      SimBackend, printing the same event lines. `cmp`
//                      its CSVs against the daemon's to verify
//                      byte-identical results at any worker count (the
//                      invariant CI's daemon-smoke job pins).
//
// --quiet prints no events. The exit code comes from the terminal
// event: 0 done (no failed cells), 1 done with failures, run error or
// no terminal event, 2 rejected/usage, 3 interrupted (journal
// resumable) or cancelled.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/format.hpp"
#include "exec/interrupt.hpp"
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

/// Prints event lines (unless quiet) and takes the exit code from the
/// terminal event, read off the socket or streamed by the in-process
/// job alike. A terminal event is always one line of its own; an event
/// of several lines is a chunk of "cell" lines, which sets no code.
struct EventPrinter : exec::ServiceEventSink {
  bool quiet = false;
  std::optional<int> exit_code;  ///< unset until the terminal event

  void on_event(const std::string& json_lines) override {
    if (!quiet) std::printf("%s\n", json_lines.c_str());
    try {
      const json::Value event = json::parse(json_lines);
      const std::string& kind = event.at("event").as_string();
      if (kind == "done") {
        const bool failed = event.at("failed").as_size() > 0;
        const bool interrupted = event.at("interrupted").as_size() > 0;
        exit_code = interrupted ? exec::kInterruptedExitCode : (failed ? 1 : 0);
      } else if (kind == "rejected") {
        exit_code = 2;
      } else if (kind == "error") {
        exit_code = 1;
      } else if (kind == "cancelled") {
        exit_code = exec::kInterruptedExitCode;
      }
    } catch (const std::exception&) {
      // Not one event line; keep streaming.
    }
  }
};

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
  bool local = false;
  EventPrinter printer;
  exec::Submission sub;  // the run options; spec and backend travel in the envelope

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
      printer.quiet = true;
    } else if (arg == "--priority") {
      sub.priority = parse_option(arg, next(), INT_MIN, INT_MAX);
    } else if (arg == "--journal") {
      sub.journal_path = next();
    } else if (arg == "--samples-csv") {
      sub.samples_csv = next();
    } else if (arg == "--summary-csv") {
      sub.summary_csv = next();
    } else if (arg == "--metrics") {
      sub.metrics_path = next();
    } else if (arg == "--max-attempts") {
      sub.max_attempts = parse_option<std::size_t>(arg, next(), 0, exec::kMaxAttempts);
    } else if (arg == "--heartbeat") {
      sub.heartbeat_s = parse_option(arg, next(), 0.0, exec::kMaxHeartbeatS);
    } else {
      print_usage();
      return arg == "--help" ? 0 : 2;
    }
  }
  const std::string header = exec::wire::submit_header_to_json(sub);

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
    if (const std::optional<exec::Submission> job =
            exec::admit(header, envelope_line, printer)) {
      (void)exec::run_job(*job, 1, &printer, nullptr, nullptr, exec::interrupt_flag());
    }
    return printer.exit_code.value_or(1);  // 1: no terminal event
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

  std::string line;
  while (!printer.exit_code && exec::read_line_fd(fd, line)) printer.on_event(line);
  ::close(fd);
  return printer.exit_code.value_or(1);
}
