// Byte goldens for every JSON document scibench writes about itself:
// the campaign envelope and SimBackend::identity() (the result-cache
// key and the journal fingerprint input), the submit header, job and
// cell lines on the daemon's wire, the three journal line kinds, the
// campaign and daemon metrics files, BENCH_*.json reports and bench
// history lines. An emitter that drifts breaks dedupe, resume or the
// history store silently, so each file pins the emitted bytes; the
// parsers are checked to read them back to the same bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ci/history.hpp"
#include "exec/campaign.hpp"
#include "exec/journal.hpp"
#include "exec/progress.hpp"
#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"
#include "golden_file.hpp"
#include "obs/bench_report.hpp"
#include "obs/daemon_metrics.hpp"

namespace sci {
namespace {

namespace wire = exec::wire;

/// The `scibench_submit --emit-demo` envelope of `demo`, read from the
/// built tool (no trailing newline).
std::string demo_envelope(const char* demo) {
  const std::string command = std::string("'") + SCIBENCH_SUBMIT_PATH + "' --emit-demo " + demo;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string line;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) line.append(buf, got);
  if (::pclose(pipe) != 0 || line.empty() || line.back() != '\n') return {};
  line.pop_back();
  return line;
}

constexpr const char* kDemos[] = {"pingpong", "pingpong-seq", "reduce", "faulty", "crashy"};

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Samples that only a bit-exact codec carries: NaN payloads of both
/// signs, infinities, both zeros, the smallest subnormal and extremes.
std::vector<double> edge_samples() {
  return {from_bits(0x7ff8000000000001ULL), from_bits(0xfff4000000abcdefULL),
          std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity(),
          0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308, 0.1, 12.5};
}

/// Text that every string codec must escape or pass through: quotes,
/// backslashes, control bytes and multi-byte UTF-8.
const std::string kAwkwardText =
    "cell threw: \"bad\" \\ path\\to\nline\ttab\x01\x1f\x7f \xc2\xb5s \xe6\x97\xa5\xe6\x9c\xac";

std::string lines(const std::vector<std::string>& docs) {
  std::string out;
  for (const std::string& d : docs) out += d + "\n";
  return out;
}

TEST(CodecGolden, DemoEnvelopesAndBackendIdentities) {
  std::vector<std::string> envelopes;
  std::vector<std::string> identities;
  for (const char* demo : kDemos) {
    const std::string envelope = demo_envelope(demo);
    ASSERT_FALSE(envelope.empty()) << "could not run " << SCIBENCH_SUBMIT_PATH << " " << demo;
    envelopes.push_back(envelope);
    const wire::CampaignEnvelope env = wire::parse_campaign_json(envelope);
    EXPECT_EQ(wire::campaign_to_json(env.spec, env.backend), envelope) << demo;
    identities.push_back(exec::SimBackend(env.backend).identity());
  }
  exec::SimBackendOptions odd;
  odd.kernel = exec::SimKernel::kPiScaling;
  odd.machine = "m\"a\\chine \xc2\xb5";
  odd.samples = 1;
  odd.warmup = 0;
  odd.sync_window_s = 5e-324;
  odd.base_seconds = 1e300;
  odd.serial_fraction = 1.0 / 3.0;
  odd.ranks = 2147483647;
  odd.scale = 1e-9;
  odd.unit = "ns\t";
  identities.push_back(exec::SimBackend(odd).identity());
  golden::expect_golden("codec_envelopes.golden", lines(envelopes));
  golden::expect_golden("codec_identity.golden", lines(identities));
}

TEST(CodecGolden, SubmitHeaders) {
  exec::Submission all;
  all.priority = -2147483647 - 1;
  all.journal_path = "runs/j \"1\".jsonl";
  all.samples_csv = kAwkwardText;
  all.summary_csv = "summary.csv";
  all.metrics_path = "m\\.json";
  all.max_attempts = exec::kMaxAttempts;
  all.heartbeat_s = 0.25;
  exec::Submission tiny;
  tiny.priority = 7;
  tiny.heartbeat_s = 1e-300;
  const std::vector<std::string> headers = {wire::submit_header_to_json(exec::Submission{}),
                                            wire::submit_header_to_json(all),
                                            wire::submit_header_to_json(tiny)};
  const std::string envelope = demo_envelope("pingpong");
  ASSERT_FALSE(envelope.empty());
  for (const std::string& h : headers) {
    EXPECT_EQ(wire::submit_header_to_json(wire::parse_submission(h, envelope)), h);
  }
  golden::expect_golden("codec_submit.golden", lines(headers));
}

TEST(CodecGolden, JobLines) {
  std::vector<std::string> jobs;
  for (const char* demo : kDemos) {
    const std::string envelope = demo_envelope(demo);
    ASSERT_FALSE(envelope.empty()) << demo;
    const wire::CampaignEnvelope env = wire::parse_campaign_json(envelope);
    const exec::Campaign campaign(env.spec);
    for (std::size_t c = 0; c < 2 && c < campaign.config_count(); ++c) {
      const exec::Config config = campaign.config(c);
      jobs.push_back(wire::job_to_json(env.backend, config, campaign.seed_for(config, 0)));
    }
  }
  // Hand-built: awkward factor text, no factor at all, and backend
  // numbers a to_chars emitter must spell exactly (null for NaN).
  exec::SimBackendOptions b;
  b.machine = kAwkwardText;
  b.sync_window_s = std::numeric_limits<double>::quiet_NaN();
  b.base_seconds = -0.0;
  b.serial_fraction = 5e-324;
  b.scale = 1e300;
  b.ranks = 0;
  exec::Config config;
  config.index = 12345;
  config.levels = {{"f\"1", "\xe6\x97\xa5"}, {"ctl\x01", "x\\y"}};
  config.level_indices = {0, 99};
  jobs.push_back(wire::job_to_json(b, config, 0xfedcba9876543210ULL));
  jobs.push_back(wire::job_to_json(exec::SimBackendOptions{}, exec::Config{}, 0));
  for (const std::string& job : jobs) {
    const wire::JobSpec spec = wire::parse_job_json(job);
    EXPECT_EQ(wire::job_to_json(spec.backend, spec.config, spec.seed), job);
  }
  golden::expect_golden("codec_job.golden", lines(jobs));
}

TEST(CodecGolden, CellReplies) {
  exec::CellResult edges;
  edges.samples = edge_samples();
  edges.unit = "\xc2\xb5s";
  edges.stop_reason = "converged";
  edges.warmup_discarded = 16;
  edges.attempts = 3;  // not carried
  exec::CellResult failed;
  failed.error = kAwkwardText;
  failed.stop_reason = "";
  const std::vector<std::string> replies = {wire::cell_result_to_json(edges),
                                            wire::cell_result_to_json(failed),
                                            wire::cell_result_to_json(exec::CellResult{})};
  for (const std::string& r : replies) {
    EXPECT_EQ(wire::cell_result_to_json(wire::parse_cell_result_json(r)), r);
  }
  golden::expect_golden("codec_cell.golden", lines(replies));
}

TEST(CodecGolden, JournalLines) {
  const std::string path = ::testing::TempDir() + "/scibench_codec_golden.journal";
  std::remove(path.c_str());
  exec::CellResult edges;
  edges.samples = edge_samples();
  edges.unit = "us";
  edges.attempts = 2;
  exec::CellResult failed;
  failed.error = kAwkwardText;
  failed.attempts = 4;
  {
    exec::CampaignJournal journal(path, 0x0123456789abcdefULL);
    journal.append(3, 1, 0xffffffffffffffffULL, edges);
    journal.append(0, 0, 0, failed);
    journal.append_stop(3, 7, "converged \"ci\"\n");
    journal.append_stop(1, 0, "");
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  {
    const exec::CampaignJournal replay(path, 0x0123456789abcdefULL);
    const exec::CellResult* got = replay.find(3, 1, 0xffffffffffffffffULL);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(wire::cell_result_to_json(*got), wire::cell_result_to_json(edges));
    EXPECT_EQ(got->attempts, 2u);
    ASSERT_NE(replay.find_stop(3), nullptr);
    EXPECT_EQ(replay.find_stop(3)->reason, "converged \"ci\"\n");
  }
  std::remove(path.c_str());
  golden::expect_golden("codec_journal.golden", text.str());
}

TEST(CodecGolden, CampaignMetricsSnapshots) {
  exec::ProgressSnapshot full;
  full.campaign = kAwkwardText;
  full.backend = "sim.pingpong";
  full.total_cells = 12;
  full.completed = 11;
  full.executed = 5;
  full.failed = 1;
  full.retries = 2;
  full.cache_hits = 3;
  full.journal_hits = 2;
  full.interrupted = 1;
  full.samples_executed = 160;
  full.samples_total = 384;
  full.elapsed_s = 0.1 + 0.2;
  full.finished = true;
  full.sequential = true;
  full.configs_total = 3;
  full.configs_converged = 2;
  full.configs_capped = 1;
  full.rounds = 4;
  full.rep_counts = {3, 4, 9007199254740992ULL};
  full.workers = {{4, 0.0625}, {0, 5e-324}, {7, std::numeric_limits<double>::quiet_NaN()}};
  full.counter_delta = {{"net.bytes", 4096}, {"z\"q", 9007199254740992ULL}};
  exec::ProgressSnapshot workers_only;
  workers_only.campaign = "w";
  workers_only.workers = {{1, 1e300}};
  exec::ProgressSnapshot counters_only;
  counters_only.counter_delta = {{"a", 0}};
  counters_only.elapsed_s = -0.0;
  const std::vector<std::string> docs = {exec::ProgressSnapshot{}.to_json(), full.to_json(),
                                         workers_only.to_json(), counters_only.to_json()};
  std::string all;
  for (const std::string& d : docs) {
    EXPECT_EQ(exec::parse_progress_snapshot(d).to_json(), d);
    all += d;
  }
  golden::expect_golden("codec_progress.golden", all);
}

TEST(CodecGolden, DaemonMetrics) {
  obs::DaemonMetrics m;
  std::size_t v = 1;
  for (std::size_t* field :
       {&m.jobs_submitted, &m.jobs_completed, &m.jobs_with_failures, &m.jobs_rejected,
        &m.queue_peak, &m.cells_executed, &m.cells_deduped, &m.cells_journal_replayed,
        &m.cells_failed, &m.cells_interrupted, &m.workers_spawned, &m.workers_crashed,
        &m.cache_cells, &m.cache_bytes, &m.cache_evicted}) {
    *field = v;
    v = v * 10 + 1;
  }
  golden::expect_golden("codec_daemon_metrics.golden",
                        obs::DaemonMetrics{}.to_json() + m.to_json());
}

TEST(CodecGolden, BenchReports) {
  obs::BenchReport full;
  full.bench = "golden \"bench\"";
  full.git_sha = "0123abcd";
  full.context = {{"build_type", "release"}, {"host", kAwkwardText}, {"pooling", "1"}};
  full.metrics = {
      {"a.rate", "rep/s", obs::Improve::kHigher, 20, 1.25, 1.125, 1.5},
      {"b.time", "ms", obs::Improve::kLower, 0, std::numeric_limits<double>::quiet_NaN(),
       -std::numeric_limits<double>::infinity(), 5e-324},
      {"c\\d", "\xc2\xb5s", obs::Improve::kLower, 9007199254740992ULL, -0.0, 1e300, 0.1}};
  full.counters = {{"z.last", 9}, {"alloc.calls", 0}, {"m.mid", 9007199254740992ULL}};
  obs::BenchReport context_only;
  context_only.bench = "ctx";
  context_only.context = {{"k", "v"}};
  obs::BenchReport metrics_only;
  metrics_only.metrics = {full.metrics[0]};
  const std::vector<std::string> docs = {
      obs::bench_report_json(obs::BenchReport{}), obs::bench_report_json(full),
      obs::bench_report_json(context_only), obs::bench_report_json(metrics_only)};
  std::string all;
  for (const std::string& d : docs) {
    EXPECT_EQ(obs::bench_report_json(obs::parse_bench_report(d)), d);
    all += d;
  }
  golden::expect_golden("codec_bench_report.golden", all);
}

TEST(CodecGolden, HistoryLines) {
  std::vector<std::string> out;
  const double medians[] = {1.25, std::numeric_limits<double>::quiet_NaN(), 1e300, 5e-324,
                            -0.0};
  for (std::size_t i = 0; i < std::size(medians); ++i) {
    ci::HistoryPoint point;
    point.seq = i * 977;
    point.git_sha = i % 2 == 0 ? "0123abcd" : kAwkwardText;
    point.bench = "perfbench";
    point.metric.name = "metric_" + std::to_string(i);
    point.metric.unit = i % 2 == 0 ? "ms" : "MB/s";
    point.metric.improve = i % 2 == 0 ? obs::Improve::kLower : obs::Improve::kHigher;
    point.metric.n = 20 + i;
    point.metric.median = medians[i];
    point.metric.ci_lo = medians[i] * 0.99;
    point.metric.ci_hi = -std::numeric_limits<double>::infinity();
    out.push_back(ci::history_line(point));
  }
  for (const std::string& line : out) {
    EXPECT_EQ(ci::history_line(ci::parse_history_line(line)), line);
  }
  golden::expect_golden("codec_history.golden", lines(out));
}

}  // namespace
}  // namespace sci
