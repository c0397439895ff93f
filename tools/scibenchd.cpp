// scibenchd: benchmark-as-a-service daemon.
//
// Listens on a local Unix-domain socket, accepts serialized campaign
// submissions (exec/wire.hpp), and runs them through a CampaignService
// backed by a pool of scibench_worker processes -- a campaign cell that
// aborts or segfaults costs one worker process, never the daemon or the
// other cells. Results are byte-identical to an in-process
// CampaignRunner at any worker count (see exec/service.hpp).
//
// Client protocol, per connection (scibench_submit speaks this):
//   -> {"op": "submit", "priority": ..., "journal": ..., ...}
//   -> one "scibench.campaign" envelope line (wire::campaign_to_json)
//   <- event lines ("queued", "started", "cell", "progress", ...)
//      until a terminal "done" / "rejected" / "error" / "cancelled"
// A submission line longer than obs::json::kMaxDocumentBytes drops the
// connection. A client that stops reading its events is muted once a
// send has blocked for exec::kEventSendTimeoutMs; its job runs on and
// the queue behind it keeps moving (exec::SocketEventSink).
//
// SIGINT/SIGTERM drain the daemon: the in-flight job's remaining cells
// are marked interrupted (the journal keeps every finished cell), the
// queue is cancelled, the daemon metrics snapshot is written, and the
// process exits with code 3 -- "partial results journaled, rerun to
// resume" (exec/interrupt.hpp).
//
// Usage:
//   scibenchd --socket /tmp/scibench.sock [--workers N]
//             [--worker-bin PATH] [--metrics daemon_metrics.json]
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/interrupt.hpp"
#include "exec/service.hpp"
#include "exec/wire.hpp"
#include "obs/json.hpp"

namespace exec = sci::exec;
namespace json = sci::obs::json;

namespace {

std::string default_worker_path(const char* argv0) {
  if (const char* env = std::getenv("SCIBENCH_WORKER_PATH")) return env;
  // Sibling binary next to the daemon.
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  std::string dir;
  if (n > 0) {
    buf[n] = '\0';
    dir = buf;
  } else {
    dir = argv0;
  }
  const std::size_t slash = dir.rfind('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  return dir + "/scibench_worker";
}

/// Reads the two-line submission, runs it to a terminal event, closes.
void serve_client(exec::CampaignService& service, int fd) {
  std::string header_line;
  std::string campaign_line;
  exec::SocketEventSink sink(fd);  // a client that stops reading is muted
  if (exec::read_line_fd(fd, header_line) && exec::read_line_fd(fd, campaign_line)) {
    try {
      const json::Value header = json::parse(header_line);
      if (header.at("op").as_string() != "submit") {
        throw std::runtime_error("unknown op \"" + header.at("op").as_string() + "\"");
      }
      const exec::wire::CampaignEnvelope envelope =
          exec::wire::parse_campaign_json(campaign_line);

      exec::Submission sub;
      sub.spec = envelope.spec;
      sub.backend = envelope.backend;
      const auto str = [&](const char* key) {
        const json::Value* v = header.find(key);
        return v == nullptr ? std::string() : v->as_string();
      };
      if (const json::Value* v = header.find("priority")) {
        sub.priority = static_cast<int>(v->as_number());
      }
      sub.journal_path = str("journal");
      sub.samples_csv = str("samples_csv");
      sub.summary_csv = str("summary_csv");
      sub.metrics_path = str("metrics");
      if (const json::Value* v = header.find("max_attempts")) {
        sub.max_attempts = v->as_size();
      }
      if (const json::Value* v = header.find("heartbeat_s")) {
        sub.heartbeat_s = v->as_number();
      }

      const std::uint64_t id = service.submit(std::move(sub), &sink);
      (void)service.wait(id);  // terminal event already streamed
    } catch (const std::exception& e) {
      exec::write_line_fd(fd, "{\"event\": \"rejected\", \"job\": 0, \"error\": " +
                                  json::quoted(e.what()) + "}");
    }
  }
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string worker_bin = default_worker_path(argv[0]);
  std::string metrics_path;
  std::size_t workers = 2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "scibenchd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--workers") {
      workers = static_cast<std::size_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--worker-bin") {
      worker_bin = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: scibenchd --socket PATH [--workers N] "
                   "[--worker-bin PATH] [--metrics PATH]\n");
      return arg == "--help" ? 0 : 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "scibenchd: --socket is required\n");
    return 2;
  }
  if (workers == 0) workers = 1;

  exec::install_interrupt_handlers();

  int listen_fd = -1;
  try {
    listen_fd = exec::listen_unix(socket_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scibenchd: %s\n", e.what());
    return 2;
  }

  exec::ProcessPoolOptions popts;
  popts.worker_path = worker_bin;
  popts.workers = workers;
  exec::ProcessPool pool(popts);

  exec::ServiceOptions sopts;
  sopts.interrupt = exec::interrupt_flag();
  exec::CampaignService service(pool, sopts);

  std::fprintf(stderr, "scibenchd: listening on %s (%zu worker processes)\n",
               socket_path.c_str(), pool.worker_count());

  std::vector<std::thread> clients;
  while (!exec::interrupt_requested()) {
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200 /* ms; bounded interrupt latency */);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the flag
    const int client_fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (client_fd < 0) continue;
    clients.emplace_back(
        [&service, client_fd] { serve_client(service, client_fd); });
  }

  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  service.stop();  // cancels the queue; the active job drains via the flag
  for (std::thread& t : clients) t.join();

  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path, std::ios::binary | std::ios::trunc);
    os << service.metrics().to_json();
  }
  std::fprintf(stderr, "scibenchd: interrupted; journals are resumable\n");
  return exec::kInterruptedExitCode;
}
