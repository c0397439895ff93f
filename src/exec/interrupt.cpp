#include "exec/interrupt.hpp"

#include <csignal>

namespace sci::exec {

namespace {

std::atomic<bool> g_interrupt{false};

static_assert(std::atomic<bool>::is_always_lock_free,
              "interrupt flag must be async-signal-safe");

extern "C" void scibench_interrupt_handler(int signo) {
  if (g_interrupt.exchange(true)) {
    // Second signal: the operator means it. Restore the default
    // disposition and re-raise so the process dies with the standard
    // signal semantics instead of looping in a wedged drain.
    std::signal(signo, SIG_DFL);
    std::raise(signo);
  }
}

}  // namespace

std::atomic<bool>* interrupt_flag() noexcept { return &g_interrupt; }

void install_interrupt_handlers() {
  std::signal(SIGINT, scibench_interrupt_handler);
  std::signal(SIGTERM, scibench_interrupt_handler);
}

bool interrupt_requested() noexcept {
  return g_interrupt.load(std::memory_order_relaxed);
}

}  // namespace sci::exec
