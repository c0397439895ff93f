// End-to-end coverage for the campaign service stack: wire-format
// round trips, process-pool crash isolation, and the PR invariant --
// campaigns run through worker processes (any count, even across
// worker deaths) produce CSVs byte-identical to an in-process
// CampaignRunner. Plus the service-level queue/dedupe semantics, the
// cooperative interrupt drain (exec/interrupt.hpp), a worker's warm
// context across backend switches, a client that never reads, and the
// bounded line framing of the socket and pipe readers.
//
// SCIBENCH_WORKER_PATH is injected by tests/CMakeLists.txt as the
// build-tree path of the scibench_worker binary.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/interrupt.hpp"
#include "exec/process_pool.hpp"
#include "exec/runner.hpp"
#include "exec/service.hpp"
#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"
#include "obs/json.hpp"

namespace sci::exec {
namespace {

std::string csv_of(const core::Dataset& ds) {
  std::ostringstream os;
  ds.write_csv(os);
  return os.str();
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

ProcessPoolOptions pool_options(std::size_t workers, std::size_t crash_retries = 2) {
  ProcessPoolOptions popts;
  popts.worker_path = SCIBENCH_WORKER_PATH;
  popts.workers = workers;
  popts.crash_retries = crash_retries;
  return popts;
}

SimBackendOptions small_sim_options() {
  SimBackendOptions opts;
  opts.kernel = SimKernel::kPingPong;
  opts.samples = 24;
  opts.warmup = 2;
  opts.scale = 1e6;
  opts.unit = "us";
  return opts;
}

CampaignSpec grid_spec(const std::string& name = "svc_grid") {
  CampaignSpec spec;
  spec.name = name;
  spec.base.synchronization_method = "none (pingpong)";
  spec.base.environment["site"] = "unit test";
  spec.factors.push_back({"system", {"dora", "pilatus"}});
  spec.factors.push_back({"message_bytes", {"64", "4096"}});
  spec.replications = 2;
  spec.seed = 4242;
  return spec;
}

struct RunBytes {
  std::string samples;
  std::string summary;
};

RunBytes run_in_process(const CampaignSpec& spec, const SimBackendOptions& opts,
                        std::size_t workers) {
  SimBackend backend(opts);
  CampaignRunnerOptions ropts;
  ropts.workers = workers;
  CampaignRunner runner(backend, Campaign(spec), ropts);
  const CampaignResult result = runner.run();
  return {csv_of(result.samples_dataset()), csv_of(result.summary_dataset())};
}

// ------------------------------------------------------------- wire

TEST(Wire, HexU64AndDoubleRoundTrip) {
  const std::uint64_t seeds[] = {0ULL, 1ULL, 0x5c1b3ac4d2e9f107ULL,
                                 0xffffffffffffffffULL};
  for (const std::uint64_t s : seeds) {
    const std::string hex = wire::hex_u64(s);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(wire::parse_hex_u64(hex), s);
  }
  const double values[] = {0.0, -0.0, 1.5, -3.25e-9, 6.02214076e23};
  for (const double v : values) {
    EXPECT_EQ(wire::parse_hex_double(wire::hex_double(v)), v);
  }
  // NaN payloads survive bit-exactly (the reason samples travel as hex).
  const double nan = std::nan("0x5ca1ab1e");
  const std::string hex = wire::hex_double(nan);
  EXPECT_EQ(wire::hex_double(wire::parse_hex_double(hex)), hex);
  EXPECT_THROW((void)wire::parse_hex_u64("not-hex-not-16"), std::runtime_error);
}

TEST(Wire, CampaignEnvelopeRoundTripsByteIdentically) {
  CampaignSpec spec = grid_spec("wire_grid");
  spec.description = "round-trip fixture";
  spec.stopping = StoppingPolicy::sequential_ci(0.03, 3, 9);
  const SimBackendOptions backend = small_sim_options();

  const std::string line = wire::campaign_to_json(spec, backend);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "wire lines must be one line";

  const wire::CampaignEnvelope envelope = wire::parse_campaign_json(line);
  EXPECT_EQ(wire::campaign_to_json(envelope.spec, envelope.backend), line);

  // The parse rebuilds the identical campaign: same grid, same seeds.
  const Campaign a{spec};
  const Campaign b{envelope.spec};
  ASSERT_EQ(a.config_count(), b.config_count());
  for (std::size_t i = 0; i < a.config_count(); ++i) {
    EXPECT_EQ(a.config(i).to_string(), b.config(i).to_string());
    EXPECT_EQ(a.seed_for(a.config(i), 1), b.seed_for(b.config(i), 1));
  }
  EXPECT_EQ(envelope.spec.stopping.describe(), spec.stopping.describe());
  EXPECT_EQ(envelope.backend.unit, backend.unit);
}

TEST(Wire, SeedOverrideIsNotSerializable) {
  CampaignSpec spec = grid_spec();
  spec.seed_override = [](const Config&, std::size_t) { return 7ULL; };
  EXPECT_THROW((void)wire::campaign_to_json(spec, {}), std::invalid_argument);
}

TEST(Wire, HostileEnvelopeIsATypedErrorNotACrash) {
  // scibenchd parses the header line with json::parse and the campaign
  // line with parse_campaign_json. 2 MB of '[' on either must throw the
  // parser's typed error -- which the daemon answers with a "rejected"
  // event -- before one-level-per-byte recursion can exhaust the stack.
  const std::string hostile(std::size_t{2} << 20, '[');
  EXPECT_THROW((void)obs::json::parse(hostile), obs::json::ParseError);
  EXPECT_THROW((void)wire::parse_campaign_json(hostile), obs::json::ParseError);
}

TEST(Wire, JobAndCellResultRoundTrip) {
  const Campaign campaign{grid_spec()};
  const Config config = campaign.config(2);
  const std::uint64_t seed = campaign.seed_for(config, 1);
  const std::string job_line = wire::job_to_json(small_sim_options(), config, seed);
  const wire::JobSpec job = wire::parse_job_json(job_line);
  EXPECT_EQ(job.seed, seed);
  EXPECT_EQ(job.config.index, config.index);
  EXPECT_EQ(job.config.to_string(), config.to_string());
  EXPECT_EQ(wire::job_to_json(job.backend, job.config, job.seed), job_line);

  CellResult result;
  result.samples = {1.5, -0.0, 3.0e-7};
  result.unit = "us";
  result.stop_reason = "fixed";
  result.warmup_discarded = 2;
  result.error = "";
  const std::string cell_line = wire::cell_result_to_json(result);
  const CellResult parsed = wire::parse_cell_result_json(cell_line);
  EXPECT_EQ(parsed.samples, result.samples);
  EXPECT_EQ(parsed.unit, "us");
  EXPECT_EQ(parsed.warmup_discarded, 2u);
  EXPECT_EQ(wire::cell_result_to_json(parsed), cell_line);
}

TEST(Wire, CellResultSamplesMustBeAnArray) {
  // Anything else would decode as a cell with no samples; a journal
  // replays such a damaged record as a torn line instead.
  const std::string good = wire::cell_result_to_json(CellResult{});
  const std::size_t at = good.find("\"samples\": []");
  ASSERT_NE(at, std::string::npos);
  for (const char* bad : {"7", "null", "\"\"", "{}"}) {
    std::string line = good;
    line.replace(at + 11, 2, bad);
    EXPECT_THROW((void)wire::parse_cell_result_json(line), std::runtime_error) << line;
  }
}

/// `line` with the value of its first `"key": ` member replaced by
/// `value` (the old value ends at its matching bracket, or at the next
/// ',' or '}' for a scalar).
std::string with_member(std::string line, const std::string& key, const std::string& value) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t begin = line.find(needle);
  if (begin == std::string::npos) return {};
  const std::size_t from = begin + needle.size();
  std::size_t end = from;
  int depth = 0;
  for (; end < line.size(); ++end) {
    const char c = line[end];
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') {
      if (depth == 0) break;
      if (--depth == 0) {
        ++end;
        break;
      }
    }
    if (c == ',' && depth == 0) break;
  }
  return line.replace(from, end - from, value);
}

TEST(Wire, EnvelopeContainersAndFlagsAreTyped) {
  // A number where the grid or a flag belongs used to decode as a
  // campaign with 0 factors, or as false.
  const std::string good = wire::campaign_to_json(grid_spec(), small_sim_options());
  ASSERT_EQ(wire::parse_campaign_json(good).spec.factors.size(), grid_spec().factors.size());
  for (const char* key : {"factors", "uses_subset"}) {
    const std::string bad = with_member(good, key, "7");
    ASSERT_FALSE(bad.empty()) << key;
    ASSERT_NE(bad, good) << key;
    EXPECT_THROW((void)wire::parse_campaign_json(bad), std::runtime_error) << bad;
  }
}

TEST(Wire, RanksAboveIntMaxIsRefusedNotWrapped) {
  // "ranks" is narrowed to int; 2^32 + 4 used to run as 4 ranks.
  const std::string good = wire::campaign_to_json(grid_spec(), small_sim_options());
  const std::string top = with_member(good, "ranks", "2147483647");
  ASSERT_NE(top, good);
  EXPECT_EQ(wire::parse_campaign_json(top).backend.ranks, INT_MAX);
  for (const char* ranks : {"2147483648", "4294967300", "1e15"}) {
    EXPECT_THROW((void)wire::parse_campaign_json(with_member(good, "ranks", ranks)),
                 std::invalid_argument)
        << ranks;
  }
}

/// Every Submission field of `got` equals `want`'s; spec and backend
/// compare through their envelope bytes.
void expect_same_submission(const Submission& got, const Submission& want) {
  EXPECT_EQ(wire::campaign_to_json(got.spec, got.backend),
            wire::campaign_to_json(want.spec, want.backend));
  EXPECT_EQ(got.priority, want.priority);
  EXPECT_EQ(got.journal_path, want.journal_path);
  EXPECT_EQ(got.samples_csv, want.samples_csv);
  EXPECT_EQ(got.summary_csv, want.summary_csv);
  EXPECT_EQ(got.metrics_path, want.metrics_path);
  EXPECT_EQ(got.max_attempts, want.max_attempts);
  EXPECT_EQ(got.heartbeat_s, want.heartbeat_s);
}

TEST(Wire, SubmitHeaderRoundTrips) {
  Submission base;
  base.spec = grid_spec();
  base.backend = small_sim_options();
  const std::string envelope = wire::campaign_to_json(base.spec, base.backend);
  std::vector<std::pair<const char*, void (*)(Submission&)>> edits = {
      {"priority", [](Submission& s) { s.priority = -2147483647 - 1; }},
      {"journal", [](Submission& s) { s.journal_path = "runs/j \"1\".jsonl"; }},
      {"samples_csv", [](Submission& s) { s.samples_csv = "out/samples,\n.csv"; }},
      {"summary_csv", [](Submission& s) { s.summary_csv = "out/summary.csv"; }},
      {"metrics", [](Submission& s) { s.metrics_path = "m\\etrics.json"; }},
      {"max_attempts", [](Submission& s) { s.max_attempts = kMaxAttempts; }},
      {"heartbeat_s", [](Submission& s) { s.heartbeat_s = 0.1; }},
  };
  Submission all = base;
  for (const auto& [field, edit] : edits) {
    SCOPED_TRACE(field);
    Submission one = base;
    edit(one);
    edit(all);
    const std::string header = wire::submit_header_to_json(one);
    EXPECT_NE(header, wire::submit_header_to_json(base));
    const Submission back = wire::parse_submission(header, envelope);
    expect_same_submission(back, one);
    EXPECT_EQ(wire::submit_header_to_json(back), header);
  }
  const std::string header = wire::submit_header_to_json(all);
  expect_same_submission(wire::parse_submission(header, envelope), all);
  // An empty header keeps every default.
  expect_same_submission(wire::parse_submission(R"({"op": "submit"})", envelope), base);
}

// ----------------------------------------------- pool byte-identity

TEST(ProcessPoolBackend, FixedCampaignMatchesInProcessByteForByte) {
  const CampaignSpec spec = grid_spec();
  const SimBackendOptions opts = small_sim_options();
  const RunBytes want = run_in_process(spec, opts, 2);

  for (const std::size_t workers : {2u, 3u}) {
    ProcessPool pool(pool_options(workers));
    PoolBackend backend(pool, opts);
    CampaignRunnerOptions ropts;
    ropts.workers = workers;
    CampaignRunner runner(backend, Campaign(spec), ropts);
    const CampaignResult result = runner.run();
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(csv_of(result.samples_dataset()), want.samples)
        << "worker processes changed result bytes (workers=" << workers << ")";
    EXPECT_EQ(csv_of(result.summary_dataset()), want.summary);
  }
}

TEST(ProcessPoolBackend, SequentialCampaignMatchesInProcessByteForByte) {
  CampaignSpec spec = grid_spec("svc_seq");
  spec.stopping = StoppingPolicy::sequential_ci(0.05, 3, 8);
  const SimBackendOptions opts = small_sim_options();
  const RunBytes want = run_in_process(spec, opts, 2);

  ProcessPool pool(pool_options(2));
  PoolBackend backend(pool, opts);
  CampaignRunnerOptions ropts;
  ropts.workers = 2;
  CampaignRunner runner(backend, Campaign(spec), ropts);
  const CampaignResult result = runner.run();
  EXPECT_TRUE(result.sequential);
  EXPECT_EQ(csv_of(result.samples_dataset()), want.samples);
  EXPECT_EQ(csv_of(result.summary_dataset()), want.summary);
}

TEST(ProcessPoolBackend, KilledWorkerRetriesSameSeedAndKeepsBytes) {
  // The kill_once drill: exactly one worker unlinks the sentinel and
  // dies mid-cell (emulating an external SIGKILL). The pool re-runs the
  // SAME (config, seed) on a fresh worker, so the campaign finishes
  // with zero failed cells and bytes identical to an undisturbed
  // in-process run (SimBackend ignores the worker_fault factor).
  CampaignSpec spec = grid_spec("svc_kill");
  spec.factors.push_back({"worker_fault", {"kill_once"}});
  const SimBackendOptions opts = small_sim_options();
  const RunBytes want = run_in_process(spec, opts, 2);

  const std::string sentinel = temp_path("kill_once.sentinel");
  { std::ofstream touch(sentinel); }
  ASSERT_EQ(::setenv("SCIBENCH_WORKER_KILL_FILE", sentinel.c_str(), 1), 0);

  ProcessPool pool(pool_options(2));
  PoolBackend backend(pool, opts);
  CampaignRunnerOptions ropts;
  ropts.workers = 2;
  CampaignRunner runner(backend, Campaign(spec), ropts);
  const CampaignResult result = runner.run();
  ::unsetenv("SCIBENCH_WORKER_KILL_FILE");

  EXPECT_EQ(pool.workers_crashed(), 1u);
  EXPECT_GE(pool.workers_spawned(), 3u);  // fleet of 2 + one respawn
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(csv_of(result.samples_dataset()), want.samples)
      << "a killed worker must not change result bytes";
  EXPECT_EQ(csv_of(result.summary_dataset()), want.summary);
}

TEST(ProcessPoolBackend, AbortingCellIsContainedAsFailedCell) {
  // A deterministic abort() kills every worker it touches; the pool
  // gives up after crash_retries, the runner's containment records a
  // failed cell, and every other cell still completes -- the property
  // an in-process backend could never provide.
  CampaignSpec spec;
  spec.name = "svc_abort";
  spec.factors.push_back({"message_bytes", {"64"}});
  spec.factors.push_back({"worker_fault", {"none", "abort"}});
  spec.replications = 2;
  spec.seed = 77;

  ProcessPool pool(pool_options(2, /*crash_retries=*/1));
  PoolBackend backend(pool, small_sim_options());
  CampaignRunnerOptions ropts;
  ropts.workers = 2;
  CampaignRunner runner(backend, Campaign(spec), ropts);
  const CampaignResult result = runner.run();

  EXPECT_EQ(result.failed, 2u);  // both replications of the abort column
  EXPECT_GE(pool.workers_crashed(), 2u);
  std::size_t ok_cells = 0;
  for (const CampaignCell& cell : result.cells) {
    const std::string& fault = cell.config.level("worker_fault");
    if (fault == "abort") {
      EXPECT_FALSE(cell.result.error.empty());
      EXPECT_TRUE(cell.result.samples.empty());
    } else {
      EXPECT_TRUE(cell.result.error.empty());
      EXPECT_FALSE(cell.result.samples.empty());
      ++ok_cells;
    }
  }
  EXPECT_EQ(ok_cells, 2u);
}

TEST(ProcessPoolBackend, WarmWorkerContextMatchesFreshBackendAcrossOptionSwitches) {
  // One worker sees pingpong and reduce jobs interleaved, so its warm
  // context must be replaced on every job; a worker that kept the
  // previous job's context would run the wrong kernel.
  SimBackendOptions reduce;
  reduce.kernel = SimKernel::kReduce;
  reduce.iterations = 6;
  CampaignSpec reduce_spec;
  reduce_spec.name = "warm_reduce";
  reduce_spec.factors.push_back({"system", {"dora", "pilatus"}});
  reduce_spec.factors.push_back({"processes", {"4", "8"}});
  const Campaign pingpong_grid{grid_spec("warm_pingpong")};
  const Campaign reduce_grid{reduce_spec};

  std::vector<std::pair<SimBackendOptions, Config>> jobs;
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 4; ++i) {
      jobs.emplace_back(small_sim_options(), pingpong_grid.config(i));
      jobs.emplace_back(reduce, reduce_grid.config(i));
    }
  }
  // Runs of equal options keep the context warm across configs.
  for (std::size_t i = 0; i < 4; ++i) jobs.emplace_back(reduce, reduce_grid.config(3 - i));
  for (std::size_t i = 0; i < 4; ++i) {
    jobs.emplace_back(small_sim_options(), pingpong_grid.config(3 - i));
  }

  // Every reply must equal a fresh in-process SimBackend(options).run().
  // The cell line encodes samples as IEEE-754 bit patterns, so equal
  // lines mean bit-identical results.
  ProcessPool pool(pool_options(1));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& [options, config] = jobs[i];
    const std::uint64_t seed = derive_seed(99, config.index, i);
    const CellResult got = pool.run(options, config, seed);
    const CellResult want = SimBackend(options).run(config, seed);
    ASSERT_FALSE(want.samples.empty());
    EXPECT_EQ(wire::cell_result_to_json(got), wire::cell_result_to_json(want))
        << "job " << i << " (" << to_string(options.kernel) << ", " << config.to_string()
        << ") differs from a fresh backend";
  }
  EXPECT_EQ(pool.workers_crashed(), 0u);
}

// ----------------------------------------------- pipelined dispatch

/// A PoolBackend without a context: the runner's stateless path loops
/// run(), so every cell is its own job round trip -- the one-job
/// dispatch that pipelining must reproduce.
class OneJobBackend : public Backend {
 public:
  OneJobBackend(ProcessPool& pool, SimBackendOptions options) : inner_(pool, std::move(options)) {}
  std::string name() const override { return inner_.name(); }
  std::string describe() const override { return inner_.describe(); }
  CellResult run(const Config& config, std::uint64_t seed) override {
    return inner_.run(config, seed);
  }

 private:
  PoolBackend inner_;
};

/// Four message sizes x {none, `fault`}, four replications: 32 cells.
/// At one runner thread the first chunk is ceil(32 / 4) = 8 cells --
/// configs 0 and 1 -- so config 1's first replication (cell 4) is in
/// the middle of a pipelined chunk.
CampaignSpec mid_chunk_fault_spec(const std::string& name, const std::string& fault) {
  CampaignSpec spec;
  spec.name = name;
  spec.factors.push_back({"message_bytes", {"8", "64", "512", "4096"}});
  spec.factors.push_back({"worker_fault", {"none", fault}});
  spec.replications = 4;
  spec.seed = 2718;
  return spec;
}

struct PoolRun {
  CampaignResult result;
  RunBytes bytes;
  std::size_t crashed = 0;
};

/// Runs `spec` at one runner thread and counts the worker deaths.
PoolRun run_on_pool(Backend& backend, ProcessPool& pool, const CampaignSpec& spec) {
  const std::size_t crashed0 = pool.workers_crashed();
  CampaignRunnerOptions ropts;
  ropts.workers = 1;
  CampaignRunner runner(backend, Campaign(spec), ropts);
  PoolRun run{runner.run(), {}, 0};
  run.bytes = {csv_of(run.result.samples_dataset()), csv_of(run.result.summary_dataset())};
  run.crashed = pool.workers_crashed() - crashed0;
  return run;
}

/// Every cell of the grid of `campaign`, in (config, rep) order.
std::vector<BatchCell> batch_of(const std::vector<Config>& grid, const Campaign& campaign,
                                std::size_t replications) {
  std::vector<BatchCell> cells;
  for (const Config& config : grid) {
    for (std::size_t rep = 0; rep < replications; ++rep) {
      cells.push_back(BatchCell{&config, campaign.seed_for(config, rep), {}});
    }
  }
  return cells;
}

TEST(PipelinedDispatch, WorkerKilledMidChunkCostsOneCrashAndNoCell) {
  // Config 1 (kill_once) runs each of its four replications inside the
  // first chunk; the first one kills its worker after cells 0-3 were
  // answered. Those replies are kept, the dead cell re-runs alone with
  // its seed, the rest of the chunk is re-sent, and the sentinel is gone
  // so nothing else dies.
  const CampaignSpec spec = mid_chunk_fault_spec("pipe_kill", "kill_once");
  const SimBackendOptions opts = small_sim_options();
  const RunBytes want = run_in_process(spec, opts, 2);

  const std::string sentinel = temp_path("pipe_kill.sentinel");
  { std::ofstream touch(sentinel); }
  ASSERT_EQ(::setenv("SCIBENCH_WORKER_KILL_FILE", sentinel.c_str(), 1), 0);
  ProcessPool pool(pool_options(2));
  PoolBackend backend(pool, opts);
  const PoolRun got = run_on_pool(backend, pool, spec);
  ::unsetenv("SCIBENCH_WORKER_KILL_FILE");

  EXPECT_EQ(got.crashed, 1u);
  EXPECT_EQ(got.result.failed, 0u);
  EXPECT_EQ(got.bytes.samples, want.samples);
  EXPECT_EQ(got.bytes.summary, want.summary);
}

TEST(PipelinedDispatch, AbortMidChunkMatchesOneJobDispatch) {
  // Every abort cell kills 1 + crash_retries workers and fails; its
  // neighbours in the chunk must come back intact (the third chunk,
  // cells 14-18, is two abort cells followed by three good ones).
  // Counts and bytes -- the damage header with its error texts
  // included -- equal one-job dispatch through the same pool.
  const CampaignSpec spec = mid_chunk_fault_spec("pipe_abort", "abort");
  const SimBackendOptions opts = small_sim_options();
  ProcessPool pool(pool_options(2, /*crash_retries=*/1));
  OneJobBackend one_job(pool, opts);
  const PoolRun want = run_on_pool(one_job, pool, spec);
  PoolBackend pipelined(pool, opts);
  const PoolRun got = run_on_pool(pipelined, pool, spec);

  EXPECT_EQ(want.result.failed, 16u);  // four abort configs x four replications
  EXPECT_EQ(want.crashed, 32u);
  EXPECT_EQ(got.result.failed, want.result.failed);
  EXPECT_EQ(got.crashed, want.crashed);
  EXPECT_EQ(got.bytes.samples, want.bytes.samples);
  EXPECT_EQ(got.bytes.summary, want.bytes.summary);

  SimBackend sim(opts);
  for (const CampaignCell& cell : got.result.cells) {
    if (cell.config.level("worker_fault") == "abort") {
      EXPECT_FALSE(cell.result.error.empty());
    } else {
      EXPECT_EQ(cell.result.samples, sim.run(cell.config, cell.seed).samples)
          << cell.config.to_string() << " rep " << cell.rep;
    }
  }
}

TEST(PipelinedDispatch, ChunkLargerThanThePipeDoesNotDeadlock) {
  // 400 job lines of ~480 B are ~190 kB, nearly three 64 KiB job pipes:
  // the pool must split the chunk into sub-batches that fit one.
  CampaignSpec spec;
  spec.name = "pipe_wide";
  spec.factors.push_back({"system", {"dora", "pilatus"}});
  spec.factors.push_back({"message_bytes", {"8", "64", "512", "4096"}});
  spec.replications = 50;
  spec.seed = 31;
  SimBackendOptions opts = small_sim_options();
  opts.samples = 2;
  const Campaign campaign(spec);
  const std::vector<Config> grid = campaign.configs();
  std::vector<BatchCell> cells = batch_of(grid, campaign, spec.replications);
  std::size_t job_bytes = 0;
  for (const BatchCell& cell : cells) {
    job_bytes += wire::job_to_json(opts, *cell.config, cell.seed).size() + 1;
  }
  EXPECT_GT(job_bytes, std::size_t{2} << 16);

  ProcessPool pool(pool_options(1));
  pool.run_batch(opts, cells);
  SimBackend sim(opts);
  for (const BatchCell& cell : cells) {
    ASSERT_EQ(wire::cell_result_to_json(cell.result),
              wire::cell_result_to_json(sim.run(*cell.config, cell.seed)));
  }
  EXPECT_EQ(pool.workers_crashed(), 0u);

  // The same campaign through the runner at one thread: a 100-cell
  // first chunk, bytes as in-process.
  PoolBackend backend(pool, opts);
  const PoolRun got = run_on_pool(backend, pool, spec);
  EXPECT_EQ(got.bytes.samples, run_in_process(spec, opts, 2).samples);
}

TEST(PipelinedDispatch, ReplyLargerThanThePipeDoesNotDeadlock) {
  // 4000 samples are a ~75 kB reply per cell, more than a 64 KiB reply
  // pipe, so the worker blocks on its first reply until the pool reads
  // it; the chunk's 160 job lines (~77 kB) are more than the job pipe
  // holds. A pool that wrote the whole chunk before reading would block
  // on the full job pipe while the worker blocks on the full reply pipe.
  CampaignSpec spec = grid_spec("pipe_tall");  // four configs
  spec.replications = 40;
  SimBackendOptions opts = small_sim_options();
  opts.samples = 4000;
  const Campaign campaign(spec);
  const std::vector<Config> grid = campaign.configs();
  std::vector<BatchCell> cells = batch_of(grid, campaign, spec.replications);
  std::size_t job_bytes = 0;
  for (const BatchCell& cell : cells) {
    job_bytes += wire::job_to_json(opts, *cell.config, cell.seed).size() + 1;
  }
  EXPECT_GT(job_bytes, std::size_t{1} << 16);

  ProcessPool pool(pool_options(1));
  pool.run_batch(opts, cells);
  SimBackend sim(opts);
  for (const BatchCell& cell : cells) {
    const std::string want = wire::cell_result_to_json(sim.run(*cell.config, cell.seed));
    EXPECT_GT(want.size(), std::size_t{1} << 16);
    ASSERT_EQ(wire::cell_result_to_json(cell.result), want);
  }
  EXPECT_EQ(pool.workers_crashed(), 0u);
}

// ------------------------------------------------------ the service

/// Collects the event stream of one submission.
class CollectSink : public ServiceEventSink {
 public:
  void on_event(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(line);
  }
  [[nodiscard]] std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }
  [[nodiscard]] bool saw(const std::string& needle) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& line : lines_) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

TEST(CampaignService, DedupesIdenticalSubmissionsAcrossClients) {
  const CampaignSpec spec = grid_spec("svc_dedupe");
  const SimBackendOptions opts = small_sim_options();

  ProcessPool pool(pool_options(2));
  CampaignService service(pool);

  Submission first;
  first.spec = spec;
  first.backend = opts;
  first.samples_csv = temp_path("svc_dedupe_a.csv");
  Submission second = first;
  second.samples_csv = temp_path("svc_dedupe_b.csv");

  CollectSink sink_a;
  CollectSink sink_b;
  std::future<JobOutcome> job_a = service.submit(first, &sink_a);
  std::future<JobOutcome> job_b = service.submit(second, &sink_b);
  const JobOutcome out_a = job_a.get();
  const JobOutcome out_b = job_b.get();

  ASSERT_TRUE(out_a.ran) << out_a.error;
  ASSERT_TRUE(out_b.ran) << out_b.error;
  EXPECT_EQ(out_a.cells, 8u);
  EXPECT_EQ(out_a.deduped, 0u);
  EXPECT_EQ(out_b.deduped, out_b.cells)
      << "second client's cells must come from the shared cache";

  const std::string csv_a = slurp(first.samples_csv);
  const std::string csv_b = slurp(second.samples_csv);
  EXPECT_FALSE(csv_a.empty());
  EXPECT_EQ(csv_a, csv_b) << "dedupe must serve byte-identical results";
  EXPECT_EQ(csv_a, run_in_process(spec, opts, 2).samples);

  EXPECT_TRUE(sink_a.saw("\"event\": \"queued\""));
  EXPECT_TRUE(sink_a.saw("\"event\": \"done\""));
  EXPECT_TRUE(sink_b.saw("\"deduped\": true"));

  const obs::DaemonMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.jobs_submitted, 2u);
  EXPECT_EQ(metrics.jobs_completed, 2u);
  EXPECT_EQ(metrics.cells_deduped, out_b.deduped);
  EXPECT_GE(metrics.workers_spawned, 2u);
}

TEST(CampaignService, DifferentBackendOptionsNeverShareCells) {
  // The pingpong demo grid at 200 samples, then the same grid and seed
  // at 100: the backend name is "sim.pingpong" either way, but the
  // identity in the CellKey carries the sample count, so the cells
  // differ and nothing may be deduplicated.
  CampaignSpec spec;
  spec.name = "demo-pingpong";
  spec.factors.push_back({"message_bytes", {"1024", "4096", "16384"}});
  spec.replications = 5;
  SimBackendOptions at200;
  at200.samples = 200;
  at200.scale = 1e6;
  at200.unit = "us";
  SimBackendOptions at100 = at200;
  at100.samples = 100;

  ProcessPool pool(pool_options(2));
  CampaignService service(pool);
  Submission first;
  first.spec = spec;
  first.backend = at200;
  Submission second = first;
  second.backend = at100;
  second.samples_csv = temp_path("svc_options_100.csv");

  const JobOutcome out_a = service.submit(first).get();
  const JobOutcome out_b = service.submit(second).get();
  ASSERT_TRUE(out_a.ran) << out_a.error;
  ASSERT_TRUE(out_b.ran) << out_b.error;
  EXPECT_EQ(out_b.deduped, 0u);
  EXPECT_EQ(out_b.executed, out_b.cells);
  EXPECT_EQ(slurp(second.samples_csv), run_in_process(spec, at100, 2).samples);
}

TEST(CampaignService, RejectsInvalidSpecWithoutDying) {
  ProcessPool pool(pool_options(1));
  CampaignService service(pool);

  Submission bad;
  bad.spec = grid_spec("");  // empty name: Campaign's ctor throws
  CollectSink sink;
  const JobOutcome out = service.submit(bad, &sink).get();
  EXPECT_FALSE(out.ran);
  EXPECT_FALSE(out.error.empty());
  EXPECT_TRUE(sink.saw("\"event\": \"rejected\""));
  EXPECT_EQ(service.metrics().jobs_rejected, 1u);

  // The service survives and still runs a good job afterwards.
  Submission good;
  good.spec = grid_spec("svc_after_reject");
  good.backend = small_sim_options();
  const JobOutcome ok = service.submit(good).get();
  EXPECT_TRUE(ok.ran) << ok.error;
  EXPECT_EQ(ok.failed, 0u);
}

TEST(CampaignService, ClientThatNeverReadsDoesNotStallTheQueue) {
  // Client A submits a 1000-cell campaign and never reads: its ~100 kB
  // of per-cell events overfill the socket buffer, so a plain blocking
  // send would wedge the job -- and client B queued behind it -- until
  // A hung up. The sink's send timeout mutes A instead; A's job still
  // finishes and writes its CSV, and B's job runs.
  int fds[2];  // [0]: the daemon's end, [1]: the client that never reads
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  SocketEventSink never_read(fds[0]);
  CollectSink sink_b;

  ProcessPool pool(pool_options(2));
  CampaignService service(pool);

  Submission flood;
  flood.spec.name = "svc_flood";
  flood.spec.factors.push_back({"system", {"dora", "pilatus"}});
  flood.spec.factors.push_back({"message_bytes", {"8", "64", "512", "4096"}});
  flood.spec.replications = 125;
  flood.spec.seed = 5;
  flood.backend = small_sim_options();
  flood.backend.samples = 4;
  flood.samples_csv = temp_path("svc_flood.csv");
  Submission next;
  next.spec = grid_spec("svc_after_flood");
  next.backend = small_sim_options();

  std::future<JobOutcome> job_a = service.submit(flood, &never_read);
  std::future<JobOutcome> job_b = service.submit(next, &sink_b);
  const bool finished = job_b.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  ::close(fds[1]);  // frees a wedged sender, so the test ends either way
  EXPECT_TRUE(finished) << "a client that never reads stalled the job queued behind it";

  const JobOutcome out_b = job_b.get();
  const JobOutcome out_a = job_a.get();
  EXPECT_TRUE(out_a.ran) << out_a.error;
  EXPECT_EQ(out_a.cells, 1000u);
  EXPECT_EQ(out_a.failed, 0u);
  EXPECT_FALSE(slurp(flood.samples_csv).empty());
  EXPECT_TRUE(out_b.ran) << out_b.error;
  EXPECT_TRUE(sink_b.saw("\"event\": \"done\""));
  ::close(fds[0]);
}

TEST(CampaignService, CellEventsOfAChunkShareOneEvent) {
  // The "cell" lines are unchanged, one per cell, but a runner chunk's
  // lines arrive as one '\n'-separated event -- one send to a socket.
  ProcessPool pool(pool_options(2));
  CampaignService service(pool);
  Submission sub;
  sub.spec = grid_spec("svc_chunked_events");
  sub.spec.replications = 50;  // 200 cells
  sub.backend = small_sim_options();
  sub.backend.samples = 4;
  CollectSink sink;
  const JobOutcome out = service.submit(sub, &sink).get();
  ASSERT_TRUE(out.ran) << out.error;

  std::size_t cell_lines = 0;
  std::size_t cell_events = 0;
  for (const std::string& event : sink.lines()) {
    std::istringstream is(event);
    std::size_t in_event = 0;
    for (std::string line; std::getline(is, line);) {
      const obs::json::Value v = obs::json::parse(line);
      if (v.at("event").as_string() == "cell") ++in_event;
    }
    cell_lines += in_event;
    cell_events += in_event > 0 ? 1 : 0;
  }
  EXPECT_EQ(cell_lines, 200u);
  EXPECT_LT(cell_events, cell_lines / 4) << "cell lines were not coalesced per chunk";
}

TEST(SocketEventSink, MutesAPeerThatStopsReading) {
  // Coalesced events are few large sends; a peer that never reads still
  // fills its buffer, and the send timeout must then mute it.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  SocketEventSink sink(fds[0]);
  const std::string lines(64 << 10, 'x');
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 64; ++i) sink.on_event(lines);  // 4 MiB, far over the buffer
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::milliseconds(3 * kEventSendTimeoutMs))
      << "one timed-out send must mute the sink";
  const auto t1 = std::chrono::steady_clock::now();
  sink.on_event(lines);
  EXPECT_LT(std::chrono::steady_clock::now() - t1, std::chrono::milliseconds(100))
      << "a muted sink must not block again";
  ::close(fds[0]);
  ::close(fds[1]);
}

// -------------------------------------------------------- interrupt

/// Sim wrapper that raises the interrupt flag after `trip` cells.
class TrippingBackend : public Backend {
 public:
  TrippingBackend(SimBackendOptions opts, std::size_t trip, std::atomic<bool>* flag)
      : inner_(std::move(opts)), trip_(trip), flag_(flag) {}
  std::string name() const override { return inner_.name(); }
  std::string describe() const override { return inner_.describe(); }
  std::string identity() const override { return inner_.identity(); }
  CellResult run(const Config& config, std::uint64_t seed) override {
    CellResult r = inner_.run(config, seed);
    if (calls_.fetch_add(1, std::memory_order_relaxed) + 1 >= trip_) {
      flag_->store(true, std::memory_order_relaxed);
    }
    return r;
  }

 private:
  SimBackend inner_;
  std::size_t trip_;
  std::atomic<bool>* flag_;
  std::atomic<std::size_t> calls_{0};
};

TEST(Interrupt, DrainedCampaignResumesToIdenticalBytes) {
  // A signal mid-campaign (flag raised after 3 cells) drains the
  // remaining cells as interrupted; the journal keeps every finished
  // cell, and a rerun against the same journal completes the campaign
  // with bytes identical to an undisturbed run.
  const CampaignSpec spec = grid_spec("svc_interrupt");
  const SimBackendOptions opts = small_sim_options();
  const RunBytes want = run_in_process(spec, opts, 2);
  const std::string journal = temp_path("svc_interrupt.journal");

  std::atomic<bool> flag{false};
  std::size_t first_pass_executed = 0;
  {
    TrippingBackend backend(opts, 3, &flag);
    CampaignRunnerOptions ropts;
    ropts.workers = 2;
    ropts.journal_path = journal;
    ropts.interrupt = &flag;
    CampaignRunner runner(backend, Campaign(spec), ropts);
    const CampaignResult result = runner.run();
    EXPECT_GT(result.interrupted, 0u);
    EXPECT_LT(result.executed, 8u);
    first_pass_executed = result.executed;
  }
  {
    SimBackend backend(opts);
    CampaignRunnerOptions ropts;
    ropts.workers = 2;
    ropts.journal_path = journal;
    CampaignRunner runner(backend, Campaign(spec), ropts);
    const CampaignResult result = runner.run();
    EXPECT_EQ(result.interrupted, 0u);
    EXPECT_EQ(result.journal_hits, first_pass_executed);
    EXPECT_EQ(csv_of(result.samples_dataset()), want.samples)
        << "kill/resume must reproduce the undisturbed bytes";
    EXPECT_EQ(csv_of(result.summary_dataset()), want.summary);
  }
}

// ------------------------------------------------- socket transport

TEST(UnixSocket, LineTransportRoundTrips) {
  const std::string path = temp_path("svc_socket.sock");
  const int listen_fd = listen_unix(path);
  ASSERT_GE(listen_fd, 0);

  std::thread server([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    std::string line;
    while (read_line_fd(fd, line)) {
      ASSERT_TRUE(write_line_fd(fd, "echo:" + line));
    }
    ::close(fd);
  });

  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_line_fd(fd, "{\"op\": \"submit\"}"));
  ASSERT_TRUE(write_line_fd(fd, "second line"));
  std::string reply;
  ASSERT_TRUE(read_line_fd(fd, reply));
  EXPECT_EQ(reply, "echo:{\"op\": \"submit\"}");
  ASSERT_TRUE(read_line_fd(fd, reply));
  EXPECT_EQ(reply, "echo:second line");
  ::close(fd);  // server sees EOF and exits

  server.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
}

/// A connected stream-socket pair; both ends close on destruction.
struct SocketPair {
  int writer = -1;
  int reader = -1;
  SocketPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0) {
      writer = fds[0];
      reader = fds[1];
    }
  }
  ~SocketPair() {
    close_writer();
    close_reader();
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
  void close_writer() {
    if (writer >= 0) ::close(writer);
    writer = -1;
  }
  void close_reader() {
    if (reader >= 0) ::close(reader);
    reader = -1;
  }
};

/// Sends all of `data` unless the peer goes away.
void send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

TEST(LineFraming, TwoLinesInOneSendAreTwoReads) {
  SocketPair pair;
  ASSERT_GE(pair.reader, 0);
  const std::string both = "first\nsecond\n";
  send_all(pair.writer, both.data(), both.size());
  std::string line;
  ASSERT_TRUE(read_line_fd(pair.reader, line));
  EXPECT_EQ(line, "first");
  ASSERT_TRUE(read_line_fd(pair.reader, line));
  EXPECT_EQ(line, "second");
  pair.close_writer();
  EXPECT_FALSE(read_line_fd(pair.reader, line)) << "nothing left but EOF";
}

TEST(LineFraming, LineSplitOverManySmallSendsIsReassembled) {
  SocketPair pair;
  ASSERT_GE(pair.reader, 0);
  const std::string text = "{\"event\": \"cell\", \"job\": 7}\nnext\n";
  std::thread writer([&] {
    for (std::size_t i = 0; i < text.size(); i += 3) {
      send_all(pair.writer, text.data() + i, std::min<std::size_t>(3, text.size() - i));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::string line;
  EXPECT_TRUE(read_line_fd(pair.reader, line));
  EXPECT_EQ(line, "{\"event\": \"cell\", \"job\": 7}");
  EXPECT_TRUE(read_line_fd(pair.reader, line));
  EXPECT_EQ(line, "next");
  writer.join();
}

TEST(LineFraming, EmptyLineIsALine) {
  SocketPair pair;
  ASSERT_GE(pair.reader, 0);
  send_all(pair.writer, "\nafter\n", 7);
  std::string line = "stale";
  ASSERT_TRUE(read_line_fd(pair.reader, line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(read_line_fd(pair.reader, line));
  EXPECT_EQ(line, "after");
}

TEST(LineFraming, EofMidLineIsFalse) {
  SocketPair pair;
  ASSERT_GE(pair.reader, 0);
  send_all(pair.writer, "no newline", 10);
  pair.close_writer();
  std::string line;
  EXPECT_FALSE(read_line_fd(pair.reader, line));
}

TEST(LineFraming, LineOfExactlyTheCapIsAcceptedAndOneMoreIsRefused) {
  constexpr std::size_t kCap = obs::json::kMaxDocumentBytes;
  // cap + 1 payload bytes and a newline; the exact-cap line is its tail.
  std::string text(kCap + 2, 'x');
  text.back() = '\n';
  {
    SocketPair pair;
    ASSERT_GE(pair.reader, 0);
    std::thread writer([&] { send_all(pair.writer, text.data() + 1, kCap + 1); });
    std::string line;
    EXPECT_TRUE(read_line_fd(pair.reader, line));
    EXPECT_EQ(line.size(), kCap);
    writer.join();
  }
  {
    SocketPair pair;
    ASSERT_GE(pair.reader, 0);
    std::thread writer([&] { send_all(pair.writer, text.data(), text.size()); });
    std::string line;
    EXPECT_FALSE(read_line_fd(pair.reader, line)) << "an over-long line must be refused";
    EXPECT_LE(line.size(), kCap);
    pair.close_reader();  // drop the peer: frees the blocked writer
    writer.join();
  }
}

TEST(LineFraming, PipeStreamReaderIsBoundedAtTheSameCap) {
  constexpr std::size_t kCap = obs::json::kMaxDocumentBytes;
  std::string text(kCap + 2, 'x');
  text.back() = '\n';
  const auto read_from_pipe = [](const char* data, std::size_t size, std::string& line) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return false;
    std::FILE* stream = ::fdopen(fds[0], "r");
    std::thread writer([&] {
      while (size > 0) {
        const ssize_t n = ::write(fds[1], data, size);
        if (n <= 0) break;
        data += n;
        size -= static_cast<std::size_t>(n);
      }
      ::close(fds[1]);
    });
    const bool ok = read_line_stream(stream, line);
    std::fclose(stream);  // frees the writer if the line was refused
    writer.join();
    return ok;
  };
  std::string line;
  EXPECT_TRUE(read_from_pipe(text.data() + 1, kCap + 1, line));
  EXPECT_EQ(line.size(), kCap);
  EXPECT_FALSE(read_from_pipe(text.data(), text.size(), line));
  EXPECT_FALSE(read_from_pipe("half a line", 11, line)) << "EOF mid-line";
  EXPECT_TRUE(read_from_pipe("\n", 1, line));
  EXPECT_EQ(line, "");
}

// ------------------------------------------------ submit header numbers

std::string header_test_envelope() {
  return wire::campaign_to_json(grid_spec("svc_header"), small_sim_options());
}

/// Sends `header` and `envelope` to serve_client over a socket pair;
/// returns every event line until the daemon side hangs up.
std::vector<std::string> serve_one(CampaignService& service, const std::string& header,
                                   const std::string& envelope = header_test_envelope()) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) return {};
  std::thread server([&service, fd = fds[0]] { serve_client(service, fd); });
  std::vector<std::string> events;
  if (write_line_fd(fds[1], header) && write_line_fd(fds[1], envelope)) {
    for (std::string line; read_line_fd(fds[1], line);) events.push_back(line);
  }
  server.join();
  ::close(fds[1]);
  return events;
}

TEST(ServeClient, HostileHeaderNumbersAreTypedRejections) {
  // Each of these reached a cast (to int, to size_t) or a std::chrono
  // duration whose result is undefined; each must be refused first,
  // by wire::parse_submission itself and so by the daemon.
  ProcessPool pool(pool_options(1));
  CampaignService service(pool);
  // The last two max_attempts rows fit a size_t but would retry an
  // always-failing cell (and respawn its worker) practically forever.
  for (const std::string& header : std::vector<std::string>{
           R"({"op": "submit", "priority": null})",
           R"({"op": "submit", "priority": 1e300})",
           R"({"op": "submit", "priority": -2147483649})",
           R"({"op": "submit", "priority": 0.5})",
           R"({"op": "submit", "max_attempts": 1e300})",
           R"({"op": "submit", "max_attempts": 18446744073709551616})",
           R"({"op": "submit", "max_attempts": -1})",
           R"({"op": "submit", "max_attempts": )" + std::to_string(kMaxAttempts + 1) + "}",
           R"({"op": "submit", "max_attempts": 1e15})",
           R"({"op": "submit", "heartbeat_s": null})",
           R"({"op": "submit", "heartbeat_s": 1e300})",
           R"({"op": "submit", "heartbeat_s": -1})",
       }) {
    bool typed = false;
    try {
      (void)wire::parse_submission(header, header_test_envelope());
    } catch (const std::invalid_argument&) {
      typed = true;
    } catch (const std::runtime_error&) {
      typed = true;
    }
    EXPECT_TRUE(typed) << header;
    const std::vector<std::string> events = serve_one(service, header);
    ASSERT_EQ(events.size(), 1u) << header;
    const obs::json::Value event = obs::json::parse(events[0]);
    EXPECT_EQ(event.at("event").as_string(), "rejected") << header;
    EXPECT_FALSE(event.at("error").as_string().empty()) << header;
  }
  // Envelope members are refused the same way: a wrong-typed one must
  // not run as a campaign with no factors, nor a "ranks" of 2^32 + 4 as
  // one of 4 ranks.
  for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
           {"factors", "7"},
           {"ranks", "4294967300"},
       }) {
    const std::string envelope = with_member(header_test_envelope(), key, value);
    ASSERT_NE(envelope, header_test_envelope()) << key;
    const std::vector<std::string> events =
        serve_one(service, R"({"op": "submit"})", envelope);
    ASSERT_EQ(events.size(), 1u) << envelope;
    const obs::json::Value event = obs::json::parse(events[0]);
    EXPECT_EQ(event.at("event").as_string(), "rejected") << envelope;
    EXPECT_FALSE(event.at("error").as_string().empty()) << envelope;
  }
  EXPECT_EQ(service.metrics().jobs_submitted, 0u);

  // In-range values still run.
  const std::vector<std::string> events =
      serve_one(service, R"({"op": "submit", "priority": -2147483648, "max_attempts": )" +
                             std::to_string(kMaxAttempts) + R"(, "heartbeat_s": 86400})");
  ASSERT_FALSE(events.empty());
  EXPECT_NE(events.back().find("\"event\": \"done\""), std::string::npos) << events.back();
}

}  // namespace
}  // namespace sci::exec
