// LibSciBench self-characterisation (Section 6): report the resolution
// and overhead of every available timer on this host, and demonstrate
// the interval admission checks of Section 4.2.1 (timer overhead < 5%
// of the interval; precision 10x finer than the interval).
#include <cstdio>
#include <string>

#include "harness.hpp"
#include "timer/calibration.hpp"
#include "timer/timer.hpp"

using namespace sci;

namespace {

void report(const timer::Clock& clock) {
  const auto cal = timer::calibrate(clock, 20000);
  const double resolution[] = {cal.resolution_ns};
  const double overhead[] = {cal.overhead_ns};
  bench::summarize(cal.clock_name + ".resolution_ns", "ns", resolution);
  bench::summarize(cal.clock_name + ".overhead_ns", "ns", overhead);
  std::printf("timer '%s': resolution %.1f ns, per-call overhead %.1f ns "
              "(%zu samples)\n",
              cal.clock_name.c_str(), cal.resolution_ns, cal.overhead_ns, cal.samples);
  for (double interval_ns : {100.0, 1e3, 1e4, 1e6}) {
    const auto check = timer::check_interval(cal, interval_ns);
    std::printf("  interval %8.0f ns: overhead %s, precision %s%s%s\n", interval_ns,
                check.overhead_ok ? "ok" : "VIOLATED",
                check.precision_ok ? "ok" : "VIOLATED",
                check.message.empty() ? "" : " -- ", check.message.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("timer_calibration", argc, argv);
  std::printf("=== Timer self-characterisation (LibSciBench Section 6) ===\n");
  const timer::SteadyClock steady;
  report(steady);
  const timer::TscClock tsc;
  std::printf("\n");
  report(tsc);
#if defined(__x86_64__)
  std::printf("\ntsc period: %.4f ns/tick (calibrated against the steady clock)\n",
              tsc.ns_per_tick());
#endif
  std::printf("\nguideline (Section 4.2.1): ensure timer overhead is <5%% of the\n");
  std::printf("measured interval and resolution is 10x finer; measure multiple\n");
  std::printf("events per interval otherwise (at the cost of per-event CIs).\n");
  return bench::finish();
}
