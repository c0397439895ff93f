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
// connection; a malformed header or envelope is answered with a
// "rejected" event (exec::serve_client). Each connection is served on
// its own thread, joined by the accept loop once it is done. A client that stops reading its events is muted once a
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
// --workers takes a whole number in 1..256; anything else is a
// usage error (exit 2) before the socket is bound.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <list>
#include <string>
#include <thread>

#include "core/format.hpp"
#include "exec/interrupt.hpp"
#include "exec/service.hpp"

namespace exec = sci::exec;

namespace {

/// Upper bound on --workers: each worker is a forked process.
constexpr std::size_t kMaxWorkers = 256;

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

/// One accepted connection's thread; `finished` is set as its last act.
struct Client {
  std::atomic<bool> finished{false};
  std::thread thread;
};

/// Joins the client threads that are done, so a long-lived daemon holds
/// one thread (and its stack) per connection still being served, not
/// one per connection ever accepted.
void reap_finished(std::list<Client>& clients) {
  clients.remove_if([](Client& client) {
    if (!client.finished.load(std::memory_order_acquire)) return false;
    client.thread.join();
    return true;
  });
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
      const char* text = next();
      const auto value = sci::core::parse_number<std::size_t>(text, 1, kMaxWorkers);
      if (!value) {
        std::fprintf(stderr, "scibenchd: invalid --workers value: %s (1..%zu)\n", text,
                     kMaxWorkers);
        return 2;
      }
      workers = *value;
    } else if (arg == "--worker-bin") {
      worker_bin = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: scibenchd --socket PATH [--workers N (1..%zu)] "
                   "[--worker-bin PATH] [--metrics PATH]\n",
                   kMaxWorkers);
      return arg == "--help" ? 0 : 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "scibenchd: --socket is required\n");
    return 2;
  }

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

  std::list<Client> clients;  // stable addresses: each thread holds its own
  while (!exec::interrupt_requested()) {
    reap_finished(clients);
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200 /* ms; bounded interrupt latency */);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the flag
    const int client_fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (client_fd < 0) continue;
    Client& client = clients.emplace_back();
    client.thread = std::thread([&service, &client, client_fd] {
      exec::serve_client(service, client_fd);
      client.finished.store(true, std::memory_order_release);
    });
  }

  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  service.stop();  // cancels the queue; the active job drains via the flag
  for (Client& client : clients) client.thread.join();  // in-flight clients finish

  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path, std::ios::binary | std::ios::trunc);
    os << service.metrics().to_json();
  }
  std::fprintf(stderr, "scibenchd: interrupted; journals are resumable\n");
  return exec::kInterruptedExitCode;
}
