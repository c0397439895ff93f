#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/adaptive.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "sim/machine.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sci::obs {
namespace {

/// The sink's JSON, as write_json streams it.
std::string json_of(const TraceSink& sink,
                    const TraceSink::WriteOptions& options = TraceSink::WriteOptions{}) {
  std::ostringstream os;
  sink.write_json(os, options);
  return os.str();
}

// ---------------------------------------------------------------- sink

TEST(TraceSink, CollectsAndSerializesEvents) {
  TraceSink sink;
  sink.set_track_name(0, "rank 0");
  sink.complete(0, "send", "p2p", 1e-6, 2e-6, {{"dst", 1}, {"bytes", 8}});
  sink.instant(0, "noise", "noise", 2e-6);
  sink.counter(990, "queue_depth", 0.0, 4.0);
  EXPECT_EQ(sink.size(), 3u);

  const ParsedTrace trace = parse_trace(json_of(sink));
  ASSERT_EQ(trace.events.size(), 3u);
  EXPECT_EQ(trace.events[0].phase, 'X');
  EXPECT_EQ(trace.events[0].name, "send");
  EXPECT_DOUBLE_EQ(trace.events[0].arg("dst"), 1.0);
  EXPECT_NEAR(trace.events[0].ts_s, 1e-6, 1e-12);
  EXPECT_NEAR(trace.events[0].dur_s, 2e-6, 1e-12);
  EXPECT_EQ(trace.events[1].phase, 'i');
  EXPECT_EQ(trace.events[2].phase, 'C');
  EXPECT_EQ(trace.track_names.at(0), "rank 0");
}

TEST(TraceSink, NonFiniteValuesStillWriteJson) {
  // JSON has no NaN or inf: such values are written as null, and the
  // file stays loadable with its finite args intact.
  TraceSink sink;
  sink.complete(0, "send", "p2p", 1e-6, 2e-6,
                {{"ratio", std::numeric_limits<double>::infinity()}, {"bytes", 0.1}});
  sink.counter(990, "queue_depth", 0.0, std::numeric_limits<double>::quiet_NaN());
  const ParsedTrace trace = parse_trace(json_of(sink));
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].arg("bytes"), 0.1);
  EXPECT_FALSE(trace.events[0].has_arg("ratio"));
  EXPECT_EQ(trace.events[1].phase, 'C');
  EXPECT_FALSE(trace.events[1].has_arg("value"));
}

TEST(TraceSink, NonFiniteTimesWriteNullAndAreTypedRejections) {
  // A non-finite ts or dur is written as null: the file is still JSON,
  // and parse_trace refuses the event for its missing number.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [ts, dur, key] : {std::tuple{nan, 1.0, "'ts'"},
                                     std::tuple{0.0, inf, "'dur'"}}) {
    TraceSink sink;
    sink.complete(0, "x", "c", ts, dur);
    const std::string text = json_of(sink);
    EXPECT_NO_THROW((void)json::parse(text)) << text;
    try {
      (void)parse_trace(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("missing numeric ") + key),
                std::string::npos)
          << e.what();
    }
  }
  // Finite values keep their fixed-point bytes.
  TraceSink sink;
  sink.complete(0, "x", "c", 1.5e-6, 0.25e-6);
  EXPECT_NE(json_of(sink).find("\"ts\":1.500000,\"dur\":0.250000"), std::string::npos);
}

TEST(TraceSink, UnattachedMacrosEmitNothing) {
  detach();
  EXPECT_FALSE(SCI_TRACE_ATTACHED());
  // Must be a no-op, not a crash.
  SCI_TRACE_COMPLETE(0, "x", "c", 0.0, 1.0);
  SCI_TRACE_INSTANT(0, "x", "c", 0.0);
  SCI_TRACE_COUNTER(0, "x", 0.0, 1.0);

  // The runtime branch alone keeps an unattached site free: no argument
  // expression -- times, durations, args, counter values -- is evaluated.
  int evaluated = 0;
  const auto eval = [&evaluated](int v) { ++evaluated; return v; };
  SCI_TRACE_COMPLETE(eval(0), "x", "c", eval(0), eval(1), {{"a", eval(2)}});
  SCI_TRACE_INSTANT(eval(0), "x", "c", eval(0), {{"a", eval(2)}});
  SCI_TRACE_COUNTER(eval(0), "x", eval(0), eval(1));
  EXPECT_EQ(evaluated, 0);

  // The same sites with a sink attached evaluate every argument.
  TraceSink sink;
  {
    ScopedAttach attach(sink);
    SCI_TRACE_COMPLETE(eval(0), "x", "c", eval(0), eval(1), {{"a", eval(2)}});
    SCI_TRACE_INSTANT(eval(0), "x", "c", eval(0), {{"a", eval(2)}});
    SCI_TRACE_COUNTER(eval(0), "x", eval(0), eval(1));
  }
  EXPECT_EQ(evaluated, 10);
  EXPECT_EQ(sink.size(), 3u);
}

TEST(TraceSink, ScopedAttachRestoresPrevious) {
  TraceSink outer_sink;
  ScopedAttach outer(outer_sink);
  {
    TraceSink inner_sink;
    ScopedAttach inner(inner_sink);
    SCI_TRACE_INSTANT(0, "inner", "t", 0.0);
    EXPECT_EQ(inner_sink.size(), 1u);
  }
  SCI_TRACE_INSTANT(0, "outer", "t", 0.0);
  EXPECT_EQ(outer_sink.size(), 1u);
}

TEST(TraceSink, ParserRejectsMalformedJson) {
  EXPECT_THROW((void)parse_trace(std::string("{")), std::runtime_error);
  EXPECT_THROW((void)parse_trace(std::string("[1,2")), std::runtime_error);
  // Schema: an X event without required keys is an error.
  EXPECT_THROW((void)parse_trace(std::string(
                   R"({"traceEvents":[{"ph":"X","name":"a"}]})")),
               std::runtime_error);
  // A tid an int cannot hold, and a phase of more than one character.
  EXPECT_THROW((void)parse_trace(std::string(
                   R"({"traceEvents":[{"ph":"i","tid":1e10,"name":"a","ts":0}]})")),
               std::runtime_error);
  EXPECT_THROW((void)parse_trace(std::string(
                   R"({"traceEvents":[{"ph":"i","tid":0.5,"name":"a","ts":0}]})")),
               std::runtime_error);
  EXPECT_THROW((void)parse_trace(std::string(
                   R"({"traceEvents":[{"ph":"Mx","tid":0,"name":"a","ts":0}]})")),
               std::runtime_error);
}

TEST(TraceSink, ParserRejectsDeepNestingWithoutCrashing) {
  // 1 MB of '[' would recurse once per byte in an unbounded parser and
  // blow the stack; the bounded one stops at json::kMaxDepth.
  EXPECT_THROW((void)parse_trace(std::string(std::size_t{1} << 20, '[')),
               std::runtime_error);
  EXPECT_THROW((void)parse_trace(R"({"traceEvents":)" + std::string(200, '[') +
                                 std::string(200, ']') + "}"),
               std::runtime_error);
}

// ----------------------------------------------------------------- json

TEST(TraceSink, RankTracksSkipNamesThatAreNoWholeRank) {
  ParsedTrace trace;
  trace.track_names = {{7, "rank 1"}, {3, "rank x"},  {9, "rank 0"},
                       {4, "rank 2b"}, {5, "rank -1"}, {6, "ranking"}};
  EXPECT_EQ(trace.rank_tracks(), (std::vector<int>{9, 7}));
}

TEST(Json, AsSizeRangeChecksBeforeItCasts) {
  // Converting a double at or past 2^64 to size_t is undefined, so
  // as_size must refuse it before the cast, not detect it after.
  EXPECT_THROW((void)json::parse("1e300").as_size(), std::runtime_error);
  EXPECT_THROW((void)json::parse("18446744073709551616").as_size(), std::runtime_error);
  EXPECT_THROW((void)json::parse("null").as_size(), std::runtime_error);
  EXPECT_THROW((void)json::parse("-1").as_size(), std::runtime_error);
  EXPECT_THROW((void)json::parse("2.5").as_size(), std::runtime_error);
  // The largest double below 2^64 still fits.
  EXPECT_EQ(json::parse("18446744073709549568").as_size(), 18446744073709549568ULL);
  EXPECT_EQ(json::parse("0").as_size(), 0u);
  EXPECT_EQ(json::parse("4096").as_size(), 4096u);
}

TEST(Json, ContainerAndBoolReadsAreTyped) {
  const json::Value v = json::parse(R"({"a": [1], "o": {"k": true}, "n": 7})");
  EXPECT_EQ(v.at("a").as_array().size(), 1u);
  EXPECT_TRUE(v.at("o").as_object().front().second.as_bool());
  EXPECT_THROW((void)v.at("n").as_array(), std::runtime_error);
  EXPECT_THROW((void)v.at("n").as_object(), std::runtime_error);
  EXPECT_THROW((void)v.at("n").as_bool(), std::runtime_error);
  EXPECT_THROW((void)v.at("a").as_object(), std::runtime_error);
}

// ------------------------------------------------------------- counters

TEST(Counters, RegistryAddsAndSnapshots) {
  const auto before = CounterRegistry::instance().snapshot();
  counter("test.alpha").add(3);
  counter("test.alpha").add(2);
  counter("test.hwm").set_max(7);
  counter("test.hwm").set_max(4);  // lower: no effect

  const auto snap = CounterRegistry::instance().snapshot();
  EXPECT_EQ(snapshot_value(snapshot_delta(before, snap), "test.alpha"), 5u);
  EXPECT_EQ(snapshot_value(snap, "test.hwm"),
            std::max<std::uint64_t>(7, snapshot_value(before, "test.hwm")));
  EXPECT_EQ(snapshot_value(snap, "test.missing"), 0u);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end()));
}

TEST(Counters, SnapshotDeltaDropsZeroEntries) {
  const auto before = CounterRegistry::instance().snapshot();
  counter("test.delta").add(4);
  const auto delta = snapshot_delta(before, CounterRegistry::instance().snapshot());
  EXPECT_EQ(snapshot_value(delta, "test.delta"), 4u);
  for (const auto& [name, value] : delta) EXPECT_NE(value, 0u) << name;
}

// ----------------------------------------------- simulator integration

simmpi::World make_reduce_world(int ranks, std::uint64_t seed) {
  return simmpi::World(sim::make_dora(), ranks, seed);
}

std::string traced_reduce_json(int ranks, std::uint64_t seed) {
  TraceSink sink;
  simmpi::World world = make_reduce_world(ranks, seed);
  world.name_trace_tracks(sink);
  ScopedAttach attach(sink);
  world.launch([](simmpi::Comm& c) -> sim::Task<void> {
    (void)co_await simmpi::reduce(c, static_cast<double>(c.rank() + 1), 0);
  });
  world.run();
  TraceSink::WriteOptions options;
  options.wallclock_metadata = false;  // byte-stable output
  return json_of(sink, options);
}

TEST(SimTrace, SixteenRankReduceEmitsSchemaValidTrace) {
  const int p = 16;
  const ParsedTrace trace = parse_trace(traced_reduce_json(p, 42));

  // One named track per rank.
  const auto ranks = trace.rank_tracks();
  ASSERT_EQ(ranks.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(trace.track_names.at(ranks[static_cast<std::size_t>(r)]),
              "rank " + std::to_string(r));
  }

  // Every rank has a reduce span; every non-root rank sent exactly once
  // in a binomial tree, and each send has a matching recv (paired by
  // mseq) plus a wire span.
  int reduce_spans = 0, sends = 0, recvs = 0, wires = 0;
  std::vector<double> send_seqs, recv_seqs;
  for (const auto& ev : trace.events) {
    if (ev.phase != 'X') continue;
    if (ev.name == "reduce") ++reduce_spans;
    if (ev.name == "send") {
      ++sends;
      send_seqs.push_back(ev.arg("mseq", -1.0));
    }
    if (ev.name == "recv") {
      ++recvs;
      recv_seqs.push_back(ev.arg("mseq", -1.0));
      EXPECT_TRUE(ev.has_arg("wait_s"));
      EXPECT_TRUE(ev.has_arg("src"));
    }
    if (ev.name == "wire") ++wires;
  }
  EXPECT_EQ(reduce_spans, p);
  EXPECT_EQ(sends, p - 1);  // binomial tree: every rank but the root sends once
  EXPECT_EQ(recvs, p - 1);
  EXPECT_EQ(wires, p - 1);
  std::sort(send_seqs.begin(), send_seqs.end());
  std::sort(recv_seqs.begin(), recv_seqs.end());
  EXPECT_EQ(send_seqs, recv_seqs);  // exact send<->recv correlation

  // The engine contributed its run span and queue-depth samples.
  bool engine_run = false, queue_counter = false;
  for (const auto& ev : trace.events) {
    if (ev.phase == 'X' && ev.name == "run") engine_run = true;
    if (ev.phase == 'C' && ev.name == "queue_depth") queue_counter = true;
  }
  EXPECT_TRUE(engine_run);
  EXPECT_TRUE(queue_counter);
}

TEST(SimTrace, SeededRunsAreByteIdentical) {
  const std::string a = traced_reduce_json(16, 7);
  const std::string b = traced_reduce_json(16, 7);
  EXPECT_EQ(a, b);
  // A different seed perturbs the noise draws and must show up.
  const std::string c = traced_reduce_json(16, 8);
  EXPECT_NE(a, c);
}

TEST(SimTrace, BreakdownCoversEveryRank) {
  const ParsedTrace trace = parse_trace(traced_reduce_json(8, 3));
  const auto ranks = per_rank_breakdown(trace);
  ASSERT_GE(ranks.size(), 8u);
  for (const auto& r : ranks) {
    EXPECT_GE(r.makespan_s, r.busy_s - 1e-12);
    EXPECT_NEAR(r.makespan_s - r.busy_s, r.idle_s, 1e-9);
    EXPECT_FALSE(r.by_name.empty());
  }
}

TEST(SimTrace, CriticalPathEndsAtMakespanAndHopsAcrossRanks) {
  const ParsedTrace trace = parse_trace(traced_reduce_json(16, 5));
  const auto path = critical_path(trace);
  ASSERT_FALSE(path.empty());

  double last_p2p_end = 0.0;
  for (const auto& ev : trace.events) {
    if (ev.phase == 'X' && ev.cat == "p2p") last_p2p_end = std::max(last_p2p_end, ev.end_s());
  }
  EXPECT_NEAR(path.back().end_s, last_p2p_end, 1e-12);

  // Completion times are monotone along the dependence chain (a recv
  // span can *start* before its matching send -- that is the late-sender
  // wait -- but can only finish after it). The reduce tree also forces
  // the path through more than one rank.
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_LE(path[i - 1].end_s, path[i].end_s + 1e-12);
  }
  std::vector<int> tids;
  for (const auto& seg : path) tids.push_back(seg.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_GT(tids.size(), 1u);
}

TEST(SimTrace, LateSendersAttributeReceiverBlockTime) {
  const ParsedTrace trace = parse_trace(traced_reduce_json(16, 11));
  const auto senders = late_senders(trace);
  // In a reduce over a noisy machine some receiver blocks on some sender.
  ASSERT_FALSE(senders.empty());
  double prev = senders.front().blocked_s;
  for (const auto& s : senders) {
    EXPECT_GE(s.src_rank, 0);
    EXPECT_GT(s.waits, 0u);
    EXPECT_LE(s.blocked_s, prev + 1e-12);  // sorted, worst offender first
    prev = s.blocked_s;
  }
}

// Counters tally whether or not a trace sink is attached.
TEST(SimTrace, CountersTallyTrafficAndNoise) {
  const auto before = CounterRegistry::instance().snapshot();
  (void)traced_reduce_json(16, 42);
  const auto delta =
      snapshot_delta(before, CounterRegistry::instance().snapshot());
  EXPECT_EQ(snapshot_value(delta, keys::kNetMessages), 15u);
  EXPECT_GT(snapshot_value(delta, keys::kNetBytes), 0u);
  EXPECT_GT(snapshot_value(delta, keys::kEngineEvents), 0u);
  EXPECT_GT(snapshot_value(delta, keys::kEngineQueueHwm), 0u);
  EXPECT_GT(snapshot_value(delta, keys::kNoiseDraws), 0u);
}

// ------------------------------------------------- harness integration

TEST(HarnessTrace, MeasureAdaptiveEmitsSampleSpansAndCiChecks) {
  TraceSink sink;
  ScopedAttach attach(sink);
  core::AdaptiveOptions options;
  options.min_samples = 10;
  options.max_samples = 20;
  options.warmup = 0;
  options.check_every = 5;
  int calls = 0;
  const auto result = core::measure_adaptive([&] { return 1.0 + 1e-4 * (++calls % 3); },
                                             options);
  ASSERT_FALSE(result.samples.empty());

  const ParsedTrace trace = parse_trace(json_of(sink));
  int samples = 0, ci_checks = 0, adaptive_spans = 0;
  for (const auto& ev : trace.events) {
    if (ev.tid != kHarnessTrack) continue;
    if (ev.phase == 'X' && ev.name == "sample") ++samples;
    if (ev.phase == 'X' && ev.name == "measure_adaptive") ++adaptive_spans;
    if (ev.phase == 'i' && ev.name == "ci_check") ++ci_checks;
  }
  EXPECT_EQ(samples, static_cast<int>(result.samples.size()));
  EXPECT_EQ(adaptive_spans, 1);
  EXPECT_GE(ci_checks, 1);
}

TEST(HarnessTrace, AdaptiveBumpsHarnessCounters) {
  const auto before = CounterRegistry::instance().snapshot();
  core::AdaptiveOptions options;
  options.min_samples = 10;
  options.max_samples = 15;
  options.warmup = 0;
  (void)core::measure_adaptive([] { return 1.0; }, options);
  const auto delta =
      snapshot_delta(before, CounterRegistry::instance().snapshot());
  EXPECT_GE(snapshot_value(delta, keys::kHarnessSamples), 10u);
  EXPECT_GE(snapshot_value(delta, keys::kCiRecomputes), 1u);
}

// ------------------------------------------------------ counter footer

TEST(ReportFooter, EmbedsCounterSummary) {
  core::Experiment e;
  e.name = "ctr-report";
  core::ReportBuilder report(e);
  report.add_series({"t", "s", {1.0, 1.1, 1.2, 1.05, 1.15, 1.08}});
  report.set_counter_summary({{"net.messages", 15}, {"net.bytes", 120}});
  const std::string text = report.render();
  EXPECT_NE(text.find("provenance counters"), std::string::npos);
  EXPECT_NE(text.find("net.messages = 15"), std::string::npos);
  // The footer is sorted by counter name regardless of insertion order,
  // so reports diff cleanly across runs that assemble counters
  // differently.
  EXPECT_LT(text.find("net.bytes"), text.find("net.messages"));
  const std::string md = report.render_markdown();
  EXPECT_NE(md.find("Provenance counters"), std::string::npos);
  EXPECT_NE(md.find("`net.bytes` | 120"), std::string::npos);
  EXPECT_LT(md.find("net.bytes"), md.find("net.messages"));
}

}  // namespace
}  // namespace sci::obs
