// Campaign-throughput acceptance benchmark for PR 4 (pooled coroutine
// frames + reusable worlds + per-worker backend contexts), dogfooding
// the library's own methodology (Rules 5/7: median + 95% nonparametric
// CI, never a bare mean of wall-clock times).
//
// Part 1 times a setup-dominated campaign -- small-message ping-pong
// with few samples, and a short reduce -- in two configurations,
// interleaved so drift hits both equally:
//   baseline   a context-less forwarding backend + frame pooling
//              disabled: every replication builds a fresh World and
//              heap-allocates every coroutine frame (the execution
//              path before reusable worlds and frame pooling);
//   reuse      the SimBackend itself + frame pooling enabled: per-worker
//              contexts World::reset() a warm world per replication.
// The reported metric is campaign throughput in replications/second.
//
// Part 2 pins the determinism contract the speedup must not buy at any
// price: campaign sample CSVs are byte-equal across 1/2/4/8 workers
// with reuse on, and equal to the unpooled no-reuse baseline CSV.
//
// Part 3 audits allocations: per-replication coro_frame_heap_allocs and
// callback_heap_spills must be zero from the second replication onward
// (runner audit fields), and a warmed payload-free replication must
// make exactly zero calls into the global allocator.
//
// `--smoke` shrinks sizes for CI: the invariants (byte-equal CSVs, zero
// allocations) are still asserted; the >= 2x throughput target is only
// evaluated in the full run and recorded in
// bench/RESULTS_exec_throughput.md.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "counting_new.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "harness.hpp"
#include "sim/frame_pool.hpp"
#include "sim/machine.hpp"
#include "simmpi/benchmarks.hpp"

// Every allocator call in the process is counted (counting_new.hpp),
// so "zero allocations" is an observed fact, not a claim.

using namespace sci;

namespace {

/// Pooling toggle for the calling thread AND threads created later
/// (campaign workers inherit the default).
void set_pooling(bool on) {
  sim::FramePool::set_default_enabled(on);
  sim::FramePool::local().set_enabled(on);
}

// ------------------------------------------------------- the campaigns

exec::SimBackendOptions pingpong_options() {
  exec::SimBackendOptions options;
  options.kernel = exec::SimKernel::kPingPong;
  options.samples = 8;  // few samples: setup-dominated
  options.warmup = 2;
  options.message_bytes = 8;
  return options;
}

exec::SimBackendOptions reduce_options() {
  exec::SimBackendOptions options;
  options.kernel = exec::SimKernel::kReduce;
  options.iterations = 3;  // short reduce
  options.ranks = 4;
  return options;
}

exec::Campaign make_campaign(std::size_t replications) {
  exec::CampaignSpec spec;
  spec.name = "throughput";
  spec.factors.push_back({"system", {"dora", "pilatus"}});
  spec.replications = replications;
  spec.seed = 0x7497e5;
  return exec::Campaign(spec);
}

/// Forwards to a backend but keeps Backend::make_context()'s nullptr
/// default, so the runner calls the stateless run() for every cell: the
/// baseline arm of the duel.
class ContextlessBackend : public exec::Backend {
 public:
  explicit ContextlessBackend(exec::Backend& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  std::string describe() const override { return inner_.describe(); }
  exec::CellResult run(const exec::Config& config, std::uint64_t seed) override {
    return inner_.run(config, seed);
  }

 private:
  exec::Backend& inner_;
};

/// One timed campaign run on a fresh runner (cold cache: every cell
/// executes); returns replications/second.
double time_campaign(exec::Backend& backend, const exec::Campaign& campaign,
                     std::size_t workers, bool reuse) {
  ContextlessBackend stateless(backend);
  exec::CampaignRunnerOptions options;
  options.workers = workers;
  exec::CampaignRunner runner(reuse ? backend : stateless, campaign, options);
  const double t0 = bench::now_s();
  const exec::CampaignResult result = runner.run();
  const double dt = bench::now_s() - t0;
  bench::check(result.failed == 0, "no campaign cell failed");
  bench::check(result.executed == campaign.cell_count(), "every cell executed");
  return static_cast<double>(campaign.cell_count()) / dt;
}

struct DuelOutcome {
  obs::BenchMetric baseline;
  obs::BenchMetric reuse;
};

DuelOutcome duel(const char* name, const char* slug, exec::Backend& backend,
                 std::size_t workers, std::size_t replications, std::size_t reps) {
  const exec::Campaign campaign = make_campaign(replications);
  std::vector<double> baseline_s, reuse_s;
  baseline_s.reserve(reps);
  reuse_s.reserve(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    set_pooling(false);
    baseline_s.push_back(time_campaign(backend, campaign, workers, /*reuse=*/false));
    set_pooling(true);
    reuse_s.push_back(time_campaign(backend, campaign, workers, /*reuse=*/true));
  }
  const std::string base = std::string(slug) + "." + std::to_string(workers) + "w";
  const DuelOutcome outcome{
      bench::summarize(base + ".baseline", "rep/s", baseline_s, obs::Improve::kHigher),
      bench::summarize(base + ".reuse", "rep/s", reuse_s, obs::Improve::kHigher)};
  const double speedup = outcome.reuse.median / outcome.baseline.median;
  std::printf(
      "  %-28s %4zu w  baseline %9.0f [%9.0f, %9.0f] rep/s   reuse %9.0f "
      "[%9.0f, %9.0f] rep/s   speedup %.2fx\n",
      name, workers, outcome.baseline.median, outcome.baseline.ci_lo,
      outcome.baseline.ci_hi, outcome.reuse.median, outcome.reuse.ci_lo, outcome.reuse.ci_hi,
      speedup);
  return outcome;
}

// -------------------------------------------------- determinism checks

std::string samples_csv(const exec::CampaignResult& result) {
  std::ostringstream os;
  result.samples_dataset().write_csv(os);
  return os.str();
}

std::string run_csv(exec::Backend& backend, const exec::Campaign& campaign,
                    std::size_t workers, bool reuse) {
  ContextlessBackend stateless(backend);
  exec::CampaignRunnerOptions options;
  options.workers = workers;
  exec::CampaignRunner runner(reuse ? backend : stateless, campaign, options);
  return samples_csv(runner.run());
}

void determinism_checks(exec::Backend& backend, const char* label) {
  const exec::Campaign campaign = make_campaign(bench::smoke() ? 2 : 4);

  set_pooling(false);
  const std::string unpooled = run_csv(backend, campaign, 1, /*reuse=*/false);
  set_pooling(true);
  bench::check(!unpooled.empty(), "baseline CSV is non-empty");

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    const std::string pooled = run_csv(backend, campaign, workers, /*reuse=*/true);
    char what[128];
    std::snprintf(what, sizeof what,
                  "%s CSV bytes equal: pooled+reuse @%zu workers vs unpooled baseline",
                  label, workers);
    bench::check(pooled == unpooled, what);
  }
  std::printf("  %-12s CSVs byte-equal across {1,2,4,8} workers and vs unpooled\n",
              label);
}

// --------------------------------------------------- allocation audits

void audit_runner_counters(exec::Backend& backend, const char* label) {
  set_pooling(true);
  exec::CampaignSpec spec;
  spec.name = "audit";
  spec.replications = 6;
  exec::Campaign campaign{std::move(spec)};
  exec::CampaignRunnerOptions options;
  options.workers = 1;  // in-thread: replications execute in rep order
  exec::CampaignRunner runner(backend, campaign, options);
  const exec::CampaignResult result = runner.run();
  std::uint64_t tail_frames = 0, tail_spills = 0;
  for (std::size_t rep = 1; rep < result.cells.size(); ++rep) {
    tail_frames += result.cells[rep].result.coro_frame_heap_allocs;
    tail_spills += result.cells[rep].result.callback_heap_spills;
  }
  char what[128];
  std::snprintf(what, sizeof what,
                "%s: zero coro-frame heap allocs after replication 1", label);
  bench::check(tail_frames == 0, what);
  std::snprintf(what, sizeof what, "%s: zero callback heap spills after replication 1",
                label);
  bench::check(tail_spills == 0, what);
  bench::reporter().add_counter(std::string(label) + ".tail_coro_frame_heap_allocs",
                                tail_frames);
  bench::reporter().add_counter(std::string(label) + ".tail_callback_heap_spills",
                                tail_spills);
  std::printf("  %-12s audit: frames=%llu spills=%llu after rep 1 (rep 0: %llu frames)\n",
              label, static_cast<unsigned long long>(tail_frames),
              static_cast<unsigned long long>(tail_spills),
              static_cast<unsigned long long>(
                  result.cells[0].result.coro_frame_heap_allocs));
}

void audit_global_allocator() {
  set_pooling(true);
  // Payload-free replication: ping-pong messages carry no payload
  // vector, so a warmed replication must never enter the allocator.
  // (Reduce-family kernels still allocate one small payload per wire
  // message -- inherent to the data-carrying protocol, reported in the
  // audit fields, and out of scope for the strict zero here.)
  simmpi::PingPongBench pingpong(sim::make_dora(), 8, 4);
  for (std::uint64_t rep = 0; rep < 3; ++rep) (void)pingpong.run(24, rep);  // warm

  std::uint64_t allocs = 0;
  for (std::uint64_t rep = 3; rep < 8; ++rep) {
    const std::uint64_t before = testing::allocation_count();
    (void)pingpong.run(24, rep);
    allocs += testing::allocation_count() - before;
  }
  bench::check(allocs == 0, "zero allocator calls across 5 warmed ping-pong replications");
  std::printf("  global allocator calls across 5 warmed replications: %llu\n",
              static_cast<unsigned long long>(allocs));
  bench::reporter().add_counter("global_alloc_calls_warmed_pingpong", allocs);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("exec_throughput", argc, argv);
  bench::reporter().set_context("mode", bench::mode());
  const bool smoke = bench::smoke();
  std::printf("bench_exec_throughput (%s, %u hardware thread(s))\n", bench::mode(),
              std::thread::hardware_concurrency());
#if !SCIBENCH_POOLING
  std::printf("  note: built with SCIBENCH_POOLING=OFF; pooling stays off in every "
              "configuration\n");
#endif

  exec::SimBackend pingpong(pingpong_options());
  exec::SimBackend reduce(reduce_options());

  std::printf("\n[1] campaign throughput (replications/second)\n");
  // 128-cell campaigns per timed run: long enough to amortize runner
  // setup, short enough that the unpooled baseline's ~6k allocations
  // per run don't fragment the heap under the very contexts being
  // duelled (fresh worlds allocated into a churned heap measurably lose
  // locality -- an argument for the allocation-free path, but one that
  // belongs in RESULTS prose, not silently inside the timing).
  const std::size_t pp_replications = smoke ? 8 : 64;
  const std::size_t rd_replications = smoke ? 8 : 64;
  const std::size_t reps = smoke ? 3 : 25;
  const DuelOutcome pp1 =
      duel("pingpong 8B x8", "pingpong_8B", pingpong, 1, pp_replications, reps);
  const DuelOutcome pp4 =
      duel("pingpong 8B x8", "pingpong_8B", pingpong, 4, pp_replications, reps);
  const DuelOutcome rd1 =
      duel("reduce p4 x3", "reduce_p4", reduce, 1, rd_replications, reps);
  const DuelOutcome rd4 =
      duel("reduce p4 x3", "reduce_p4", reduce, 4, rd_replications, reps);

  std::printf("\n[2] determinism\n");
  determinism_checks(pingpong, "pingpong");
  determinism_checks(reduce, "reduce");

  std::printf("\n[3] allocation audit\n");
#if SCIBENCH_POOLING
  audit_runner_counters(pingpong, "pingpong");
  audit_global_allocator();
#else
  std::printf("  skipped (SCIBENCH_POOLING=OFF build)\n");
#endif

  if (!smoke) {
    // Acceptance: >= 2x median throughput with non-overlapping 95% CIs
    // on the setup-dominated campaign (ping-pong: its cells are mostly
    // world setup, the workload the reuse layers exist for).
    bench::check(pp1.reuse.median >= 2.0 * pp1.baseline.median,
                 "pingpong @1 worker: >= 2x median throughput");
    bench::check(pp1.reuse.ci_lo > pp1.baseline.ci_hi,
                 "pingpong @1 worker: 95% CIs do not overlap");
    // Reduce cells are simulation-dominated (the collective itself is
    // the bulk of a cell, identical in both configurations), so the
    // honest expectation is a faster median, not 2x.
    bench::check(rd1.reuse.median > rd1.baseline.median, "reduce @1 worker: reuse faster");
    // The 4-worker duels time-slice on small hosts (Rule 4: report the
    // environment, don't gate on what it can't show); only hold them to
    // "not slower" when real parallelism exists.
    if (std::thread::hardware_concurrency() >= 4) {
      bench::check(pp4.reuse.median > pp4.baseline.median,
                   "pingpong @4 workers: reuse not slower");
      bench::check(rd4.reuse.median > rd4.baseline.median,
                   "reduce @4 workers: reuse not slower");
    } else {
      std::printf("  (4-worker gates skipped: %u hardware thread(s))\n",
                  std::thread::hardware_concurrency());
    }
  }

  set_pooling(SCIBENCH_POOLING != 0);
  return bench::finish();
}
