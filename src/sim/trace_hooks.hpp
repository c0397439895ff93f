// Simulated-time tracing helpers: RAII spans whose clock is the event
// engine, for instrumenting coroutine rank programs and collectives.
// A local EngineSpan in a coroutine emits its span when the coroutine
// body finishes (locals are destroyed at co_return), covering every
// suspension in between -- exactly the collective's per-rank extent.
//
// Like the SCI_TRACE_* macros, an EngineSpan with no sink attached at
// construction costs one thread-local load and one branch.
#pragma once

#include <initializer_list>
#include <vector>

#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace sci::sim {

class EngineSpan {
 public:
  EngineSpan(const Engine& engine, int tid, const char* name, const char* cat,
             std::initializer_list<obs::TraceArg> args = {})
      : engine_(&engine), tid_(tid), name_(name), cat_(cat), t0_(engine.now()),
        armed_(obs::sink() != nullptr) {
    // Copying the args costs a heap allocation; with no sink attached
    // (every untraced replication) the span must cost nothing, so the
    // copy only happens when someone is listening.
    if (armed_) args_.assign(args.begin(), args.end());
  }
  ~EngineSpan() {
    if (!armed_) return;
    if (obs::TraceSink* s = obs::sink()) {
      s->complete(tid_, name_, cat_, t0_, engine_->now() - t0_, std::move(args_));
    }
  }
  EngineSpan(const EngineSpan&) = delete;
  EngineSpan& operator=(const EngineSpan&) = delete;

 private:
  const Engine* engine_;
  int tid_;
  const char* name_;
  const char* cat_;
  double t0_;
  bool armed_;
  std::vector<obs::TraceArg> args_;
};

#define SCI_SIM_SPAN(var, engine, tid, name, cat, ...) \
  ::sci::sim::EngineSpan var{(engine), (tid), (name), (cat)__VA_OPT__(, ) __VA_ARGS__}


}  // namespace sci::sim
