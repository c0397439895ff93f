// scibench_trace: analyze a Chrome trace-event JSON written by
// sci::obs::TraceSink (open the same file in Perfetto / chrome://tracing
// for the visual version).
//
//   scibench_trace [--breakdown] [--critical-path] [--late-senders] trace.json
//   scibench_trace --emit-demo trace.json [--ranks N] [--seed S]
//
// --emit-demo runs a seeded reduce on the simulated Piz Dora machine
// and writes its trace -- a self-contained way to produce a file to
// analyze here or open in Perfetto.
//
// With no section flags, all sections print. Sections:
//   --breakdown      per-rank time accounting: makespan, busy (interval
//                    union), idle, and the top span names by total time
//   --critical-path  the dependence chain that determined completion:
//                    walks back from the last-finishing p2p span,
//                    hopping recv -> matching send via the "mseq" tag
//   --late-senders   per source rank, how long receivers sat blocked on
//                    its messages ("wait_s" sums)
//
// Traces are read whole and parsed by obs::json::parse, so a file over
// 64 MiB or nested deeper than 128 levels is rejected as a parse error
// (a 1024-rank --emit-demo trace is about 1.4 MB).
//
// Exit code 0 on success, 1 on a trace that cannot be read (a malformed
// or schema-violating trace is reported with a position message), 2 on
// usage errors. --ranks takes a whole number in 1..4096 and --seed one
// in 0..2^64-1; anything else is a usage error before any work.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "sim/machine.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace {

/// Upper bound on --ranks: every rank is a simulated process and a
/// trace track.
constexpr int kMaxRanks = 4096;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--breakdown] [--critical-path] [--late-senders] "
               "<trace.json>\n"
               "       %s --emit-demo <trace.json> [--ranks N (1..%d)] "
               "[--seed S (0..2^64-1)]\n"
               "  no section flag: print every section\n"
               "  --emit-demo: run a seeded reduce over N simulated ranks\n"
               "               (default 16, seed 42) and write its trace\n"
               "  traces over 64 MiB or nested deeper than 128 levels are\n"
               "  rejected (a 1024-rank --emit-demo trace is about 1.4 MB)\n",
               argv0, argv0, kMaxRanks);
  return 2;
}

int emit_demo(const std::string& path, int ranks, std::uint64_t seed) {
  sci::obs::TraceSink sink;
  sci::simmpi::World world(sci::sim::make_dora(), ranks, seed);
  world.name_trace_tracks(sink);
  sci::obs::ScopedAttach attach(sink);
  world.launch([](sci::simmpi::Comm& c) -> sci::sim::Task<void> {
    (void)co_await sci::simmpi::reduce(c, static_cast<double>(c.rank() + 1), 0);
  });
  world.run();
  sink.save(path);
  std::printf("wrote %s: %zu events, %d ranks, seed %llu\n", path.c_str(), sink.size(),
              ranks, static_cast<unsigned long long>(seed));
  return 0;
}

void print_breakdown(const sci::obs::ParsedTrace& trace) {
  const auto ranks = per_rank_breakdown(trace);
  if (ranks.empty()) {
    std::printf("per-rank breakdown: no spans on rank tracks\n\n");
    return;
  }
  std::printf("per-rank breakdown (simulated seconds):\n");
  std::printf("  %-12s %12s %12s %12s  top spans\n", "track", "makespan", "busy", "idle");
  for (const auto& r : ranks) {
    std::printf("  %-12s %12.6g %12.6g %12.6g ",
                r.track.empty() ? ("tid " + std::to_string(r.tid)).c_str()
                                : r.track.c_str(),
                r.makespan_s, r.busy_s, r.idle_s);
    std::size_t shown = 0;
    for (const auto& [name, dur] : r.by_name) {
      if (shown++ == 3) break;
      std::printf(" %s=%.6g", name.c_str(), dur);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void print_critical_path(const sci::obs::ParsedTrace& trace) {
  const auto path = critical_path(trace);
  if (path.empty()) {
    std::printf("critical path: no point-to-point spans found\n\n");
    return;
  }
  std::printf("critical path (earliest first, %zu hops):\n", path.size());
  double on_path = 0.0;
  for (const auto& seg : path) {
    const auto it = trace.track_names.find(seg.tid);
    const std::string track =
        it == trace.track_names.end() ? "tid " + std::to_string(seg.tid) : it->second;
    std::printf("  [%12.6g, %12.6g] %-10s %s\n", seg.start_s, seg.end_s, track.c_str(),
                seg.name.c_str());
    on_path += seg.end_s - seg.start_s;
  }
  const double makespan = path.back().end_s;
  std::printf("  path time %.6g of makespan %.6g (%.1f%%)\n\n", on_path, makespan,
              makespan > 0.0 ? 100.0 * on_path / makespan : 0.0);
}

void print_late_senders(const sci::obs::ParsedTrace& trace) {
  const auto senders = late_senders(trace);
  if (senders.empty()) {
    std::printf("late senders: no receiver ever blocked\n\n");
    return;
  }
  std::printf("late-sender attribution (receiver block time by source):\n");
  std::printf("  %-8s %14s %8s\n", "source", "blocked [s]", "waits");
  for (const auto& s : senders) {
    std::printf("  rank %-3d %14.6g %8llu\n", s.src_rank, s.blocked_s,
                static_cast<unsigned long long>(s.waits));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool breakdown = false, critical = false, late = false, demo = false;
  int ranks = 16;
  std::uint64_t seed = 42;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--emit-demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--ranks") == 0 && i + 1 < argc) {
      const auto value = sci::core::parse_number(argv[++i], 1, kMaxRanks);
      if (!value) return usage(argv[0]);
      ranks = *value;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const auto value = sci::core::parse_number(argv[++i], std::uint64_t{0},
                                                  std::numeric_limits<std::uint64_t>::max());
      if (!value) return usage(argv[0]);
      seed = *value;
    } else if (std::strcmp(argv[i], "--breakdown") == 0) {
      breakdown = true;
    } else if (std::strcmp(argv[i], "--critical-path") == 0) {
      critical = true;
    } else if (std::strcmp(argv[i], "--late-senders") == 0) {
      late = true;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);
  if (demo) {
    try {
      return emit_demo(path, ranks, seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (!breakdown && !critical && !late) breakdown = critical = late = true;

  sci::obs::ParsedTrace trace;
  try {
    trace = sci::obs::load_trace(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("%s: %zu events", path.c_str(), trace.events.size());
  if (!trace.process_name.empty()) std::printf(" (%s)", trace.process_name.c_str());
  std::printf(", %zu rank tracks\n\n", trace.rank_tracks().size());

  if (breakdown) print_breakdown(trace);
  if (critical) print_critical_path(trace);
  if (late) print_late_senders(trace);
  return 0;
}
