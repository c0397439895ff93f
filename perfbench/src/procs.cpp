#include "procs.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "exec/service.hpp"
#include "obs/json.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::vector<char*> c_argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const std::string& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

int wait_exit_code(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

int run_tool(const std::vector<std::string>& argv, const std::string& out_path) {
  const std::string err_path = out_path + ".err";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args = c_argv(argv);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  return wait_exit_code(pid);
}

Daemon::Daemon(const std::string& bin_dir, const std::string& socket, std::size_t workers)
    : socket_(socket) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("Daemon: pipe failed");
  const std::vector<std::string> argv = {bin_dir + "/scibenchd", "--socket", socket,
                                         "--workers", std::to_string(workers),
                                         "--worker-bin", bin_dir + "/scibench_worker"};
  std::vector<char*> args = c_argv(argv);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("Daemon: fork failed");
  }
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) _exit(127);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::execv(args[0], args.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];

  // scibenchd prints "listening on" once the pool and the service exist.
  std::string text;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (text.find("listening on") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{stderr_fd_, POLLIN, 0};
    char buf[512];
    const ssize_t n = left.count() > 0 && ::poll(&pfd, 1, static_cast<int>(left.count())) > 0
                          ? ::read(stderr_fd_, buf, sizeof buf)
                          : 0;
    if (n <= 0) {
      stop();
      throw std::runtime_error("scibenchd did not become ready: " + text);
    }
    text.append(buf, static_cast<std::size_t>(n));
  }
}

Daemon::~Daemon() { stop(); }

int Daemon::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  char buf[512];
  while (::read(stderr_fd_, buf, sizeof buf) > 0) {
  }
  ::close(stderr_fd_);
  stderr_fd_ = -1;
  const int code = wait_exit_code(pid_);
  pid_ = -1;
  return code;
}

SubmitOutcome submit(const std::string& socket, const std::string& envelope,
                     const std::string& samples_csv, const std::string& summary_csv,
                     Ledger& ledger) {
  namespace json = sci::obs::json;
  SubmitOutcome out;
  const Ledger::Scope span(ledger, "exec.service");
  const auto t0 = std::chrono::steady_clock::now();
  const auto since = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  const int fd = sci::exec::connect_unix(socket);
  timeval timeout{120, 0};  // a wedged daemon fails the run instead of hanging it
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const std::string header = "{\"op\": \"submit\", \"samples_csv\": " +
                             json::quoted(samples_csv) +
                             ", \"summary_csv\": " + json::quoted(summary_csv) + "}";
  if (!sci::exec::write_line_fd(fd, header) || !sci::exec::write_line_fd(fd, envelope)) {
    ::close(fd);
    return out;
  }
  std::string line;
  for (;;) {
    const double r0 = since();
    const bool got = sci::exec::read_line_fd(fd, line);
    out.client_read_s += since() - r0;
    if (!got) break;
    ++out.events;
    out.event_bytes += line.size() + 1;
    if (ledger.enabled()) out.event_lines.push_back(line);
    json::Value event;
    {
      const Ledger::Scope parse(ledger, "obs.json");
      event = json::parse(line);
    }
    const std::string& kind = event.at("event").as_string();
    if (kind == "started") {
      out.queue_wait_s = since();
    } else if (kind == "done") {
      out.done = true;
      out.cells = event.at("cells").as_size();
      out.executed = event.at("executed").as_size();
      out.deduped = event.at("deduped").as_size();
      out.failed = event.at("failed").as_size();
      break;
    } else if (kind != "queued" && kind != "cell" && kind != "progress") {
      break;  // rejected / error / cancelled
    }
  }
  ::close(fd);
  out.wall_s = since();
  return out;
}

}  // namespace perfbench
