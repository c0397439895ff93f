#include "exec/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "exec/journal.hpp"
#include "obs/bench_report.hpp"
#include "obs/trace.hpp"
#include "sim/callback.hpp"
#include "sim/frame_pool.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"
#include "stats/online.hpp"

namespace sci::exec {

CellKey make_cell_key(const std::string& backend_name, const Config& config,
                      std::uint64_t seed) {
  std::uint64_t state = seed ^ 0xa0761d6478bd642fULL;
  state = rng::splitmix64_next(state) ^ backend_name.size();
  for (unsigned char c : backend_name) state = rng::splitmix64_next(state) ^ c;
  return CellKey{backend_name, config.levels, seed, config.hash(rng::splitmix64_next(state))};
}

std::size_t CampaignResult::rep_count(std::size_t config_index) const {
  if (cell_offsets.size() == configs + 1) {
    if (config_index >= configs)
      throw std::out_of_range("CampaignResult::rep_count: config out of range");
    return cell_offsets[config_index + 1] - cell_offsets[config_index];
  }
  // Hand-assembled fixed-arity results (tests, ad hoc tooling) that
  // never filled the offsets keep the legacy uniform grouping.
  return replications;
}

const CampaignCell& CampaignResult::cell(std::size_t config_index, std::size_t rep) const {
  if (rep >= rep_count(config_index))
    throw std::out_of_range("CampaignResult::cell: rep out of range");
  const std::size_t base = cell_offsets.size() == configs + 1
                               ? cell_offsets[config_index]
                               : config_index * replications;
  return cells.at(base + rep);
}

const std::vector<double>& CampaignResult::series(std::size_t config_index,
                                                  std::size_t rep) const {
  const CampaignCell& c = cell(config_index, rep);
  if (!c.result.error.empty()) {
    throw std::runtime_error("CampaignResult::series: cell " + c.config.to_string() +
                             " rep " + std::to_string(rep) + " failed: " + c.result.error);
  }
  return c.result.samples;
}

std::vector<double> CampaignResult::merged_series(std::size_t config_index) const {
  std::vector<double> out;
  const std::size_t reps = rep_count(config_index);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto& s = series(config_index, r);
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

core::MeasurementSummary CampaignResult::summary(std::size_t config_index,
                                                 std::size_t rep) const {
  return core::summarize_series(series(config_index, rep));
}

namespace {

std::vector<std::string> cell_columns(const std::vector<CampaignCell>& cells) {
  std::vector<std::string> cols = {"config", "rep"};
  if (!cells.empty()) {
    for (const auto& [factor, level] : cells.front().config.levels) {
      cols.push_back("f_" + factor);
    }
  }
  return cols;
}

/// Overwrites `row` with a cell's leading cells: config, rep and the
/// factor level indices.
void set_cell_prefix(const CampaignCell& cell, std::vector<double>& row) {
  row.clear();
  row.push_back(static_cast<double>(cell.config.index));
  row.push_back(static_cast<double>(cell.rep));
  for (std::size_t idx : cell.config.level_indices) {
    row.push_back(static_cast<double>(idx));
  }
}

/// Appends the six statistics of a summary row: n, median, the
/// median's rank CI, mean, min, max. These are core::summarize_series'
/// values from the same stats calls under the same rules (no CI for a
/// deterministic series or n <= 5), without its diagnostics.
void append_summary(std::span<const double> xs, std::vector<double>& row) {
  if (xs.empty()) throw std::invalid_argument("summary_dataset: empty series");
  const core::SummaryOptions options;
  const auto sorted = stats::sorted_copy(xs);
  const double median = stats::quantile_sorted(sorted, 0.5);
  const double min = sorted.front();
  const double max = sorted.back();
  const bool deterministic = (max - min) <= options.deterministic_rtol * std::fabs(median);
  std::optional<stats::Interval> ci;
  if (!deterministic && xs.size() > 5) {
    ci = stats::quantile_confidence_interval_sorted(sorted, 0.5, options.confidence);
  }
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  row.push_back(static_cast<double>(xs.size()));
  row.push_back(median);
  row.push_back(ci ? ci->lower : nan);
  row.push_back(ci ? ci->upper : nan);
  row.push_back(stats::arithmetic_mean(xs));
  row.push_back(min);
  row.push_back(max);
}

}  // namespace

core::Dataset CampaignResult::samples_dataset() const {
  auto cols = cell_columns(cells);
  cols.push_back("sample");
  cols.push_back("value");
  core::Dataset ds(experiment, std::move(cols));
  std::size_t rows = 0;
  for (const auto& cell : cells) {
    if (cell.result.error.empty()) rows += cell.result.samples.size();
  }
  ds.reserve(rows);
  std::vector<double> row;
  for (const auto& cell : cells) {
    if (!cell.result.error.empty()) continue;
    set_cell_prefix(cell, row);
    row.resize(row.size() + 2);
    const std::size_t sample_at = row.size() - 2;
    for (std::size_t i = 0; i < cell.result.samples.size(); ++i) {
      row[sample_at] = static_cast<double>(i);
      row[sample_at + 1] = cell.result.samples[i];
      ds.add_row(row);
    }
  }
  return ds;
}

core::Dataset CampaignResult::summary_dataset() const {
  auto cols = cell_columns(cells);
  for (const char* c : {"failed", "n", "median", "ci_lo", "ci_hi", "mean", "min", "max"}) {
    cols.emplace_back(c);
  }
  core::Dataset ds(experiment, std::move(cols));
  ds.reserve(cells.size());
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> row;
  for (const auto& cell : cells) {
    // Failed cells keep their row (failed=1, NaN statistics) so a
    // partially-failed campaign renders with explicit holes instead of
    // silently shrinking the grid.
    const bool cell_failed = !cell.result.error.empty();
    set_cell_prefix(cell, row);
    row.push_back(cell_failed ? 1.0 : 0.0);
    if (cell_failed) {
      row.push_back(0.0);
      for (int i = 0; i < 6; ++i) row.push_back(nan);
    } else {
      append_summary(cell.result.samples, row);
    }
    ds.add_row(row);
  }
  return ds;
}

CampaignRunner::CampaignRunner(Backend& backend, Campaign campaign,
                               CampaignRunnerOptions options)
    : backend_(backend), campaign_(std::move(campaign)), options_(options) {}

std::size_t CampaignRunner::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

void CampaignRunner::clear_cache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.clear();
}

CampaignResult CampaignRunner::run() {
  const CampaignSpec& spec = campaign_.spec();
  const StoppingPolicy& policy = spec.stopping;
  const bool sequential = policy.sequential();
  const std::size_t n_configs = campaign_.config_count();
  // Fixed mode is "one round containing the whole grid" -- the same
  // claim order, cache/journal/budget handling, and assembly as the
  // historical flat runner, byte-for-byte.
  const std::size_t min_reps = sequential ? policy.min_reps : spec.replications;
  const std::size_t max_reps = sequential ? policy.max_reps : spec.replications;

  CampaignResult result;
  result.experiment = campaign_.experiment(&backend_);
  result.replications = sequential ? 0 : spec.replications;
  result.configs = n_configs;
  result.sequential = sequential;

  const std::string backend_name = backend_.name();
  const std::vector<Config> grid = campaign_.configs();

  // Per-config round state. Completed cells accumulate here in rep
  // order and are flattened into the result at the end; the pooled
  // sample accumulator drives the sequential stop decisions.
  struct ConfigState {
    std::vector<CampaignCell> cells;
    stats::OnlineSeries series;
    std::size_t scheduled = 0;  ///< reps scheduled so far
    bool retired = false;
    double width = std::numeric_limits<double>::infinity();
    std::uint64_t tie_break = 0;  ///< CellKey hash of rep 0 (rank tie-break)
    ConfigStopInfo info;
  };
  std::vector<ConfigState> state;
  state.reserve(n_configs);
  for (std::size_t c = 0; c < n_configs; ++c) {
    ConfigState st;
    st.series = stats::OnlineSeries(sequential ? policy.max_lag : 1);
    if (sequential) {
      st.tie_break =
          make_cell_key(backend_name, grid[c], campaign_.seed_for(grid[c], 0)).hash;
    }
    state.push_back(std::move(st));
  }

  // The current round's cells, in (config.index, rep) order. Workers
  // claim slots via the shared atomic and write only their own, so the
  // round's assembled order never depends on scheduling.
  std::vector<CampaignCell> work;
  const auto schedule = [&](std::size_t c, std::size_t count) {
    ConfigState& st = state[c];
    for (std::size_t r = st.scheduled; r < st.scheduled + count; ++r) {
      CampaignCell cell;
      cell.config = grid[c];
      cell.rep = r;
      cell.seed = campaign_.seed_for(grid[c], r);
      work.push_back(std::move(cell));
    }
    st.scheduled += count;
  };
  for (std::size_t c = 0; c < n_configs; ++c) schedule(c, min_reps);

  std::size_t workers = options_.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  if (workers > work.size()) workers = work.size();
  if (workers == 0) workers = 1;

  // Crash-safe checkpoint/resume: completed cells append to the journal
  // as they finish, and a rerun with the same path replays them instead
  // of executing. Fingerprint mismatch (different campaign/backend)
  // throws here, before any cell runs.
  std::unique_ptr<CampaignJournal> journal;
  if (!options_.journal_path.empty()) {
    journal = std::make_unique<CampaignJournal>(
        options_.journal_path, CampaignJournal::fingerprint(campaign_, backend_name));
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> cache_hits{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> journal_hits{0};
  std::atomic<std::size_t> interrupted{0};
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> budget_used{0};
  // Round bookkeeping, readable by the heartbeat monitor mid-run.
  std::atomic<std::size_t> scheduled_cells{work.size()};
  std::atomic<std::size_t> rounds_done{0};
  std::atomic<std::size_t> configs_converged{0};
  std::atomic<std::size_t> configs_capped{0};
  const std::size_t max_attempts = std::max<std::size_t>(1, options_.max_attempts);

  // Telemetry is fully optional: with no sink and no metrics file, the
  // extra per-cell bookkeeping below is skipped entirely (zero-cost
  // contract), and none of it can influence results either way.
  const bool telemetry =
      options_.progress != nullptr || !options_.metrics_path.empty();
  std::atomic<std::size_t> samples_executed{0};
  std::unique_ptr<std::atomic<std::size_t>[]> worker_cells;
  std::vector<double> worker_busy;
  obs::CounterSnapshot counters_at_start;
  if (telemetry) {
    worker_cells = std::make_unique<std::atomic<std::size_t>[]>(workers);
    for (std::size_t w = 0; w < workers; ++w) worker_cells[w].store(0);
    worker_busy.assign(workers, 0.0);
    counters_at_start = obs::CounterRegistry::instance().snapshot();
  }
  const double run_t0 = obs::host_now_s();

  // Heartbeat snapshots read only the atomics above (never the cells
  // vector, which workers are still writing); samples_total and
  // per-worker busy time are final-snapshot facts.
  const auto make_snapshot = [&](bool finished) {
    ProgressSnapshot snap;
    snap.campaign = campaign_.spec().name;
    snap.backend = backend_name;
    snap.total_cells = scheduled_cells.load(std::memory_order_relaxed);
    snap.executed = executed.load(std::memory_order_relaxed);
    snap.failed = failed.load(std::memory_order_relaxed);
    snap.retries = retries.load(std::memory_order_relaxed);
    snap.cache_hits = cache_hits.load(std::memory_order_relaxed);
    snap.journal_hits = journal_hits.load(std::memory_order_relaxed);
    snap.interrupted = interrupted.load(std::memory_order_relaxed);
    snap.completed = snap.executed + snap.failed + snap.cache_hits +
                     snap.journal_hits + snap.interrupted;
    snap.samples_executed = samples_executed.load(std::memory_order_relaxed);
    snap.elapsed_s = obs::host_now_s() - run_t0;
    snap.finished = finished;
    snap.workers.resize(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      snap.workers[w].cells = worker_cells[w].load(std::memory_order_relaxed);
      snap.workers[w].busy_s = finished ? worker_busy[w] : snap.elapsed_s;
    }
    snap.counter_delta = obs::snapshot_delta(counters_at_start,
                                             obs::CounterRegistry::instance().snapshot());
    // Live convergence stats (sequential mode; zeros under fixed).
    snap.sequential = sequential;
    snap.configs_total = sequential ? n_configs : 0;
    snap.configs_converged = configs_converged.load(std::memory_order_relaxed);
    snap.configs_capped = configs_capped.load(std::memory_order_relaxed);
    snap.rounds = rounds_done.load(std::memory_order_relaxed);
    if (finished) {
      for (const auto& cell : result.cells) {
        if (cell.result.error.empty()) snap.samples_total += cell.result.samples.size();
      }
      // Final-snapshot fact, like samples_total: per-config rep counts
      // (read from the assembled result, after the rounds finish).
      if (sequential && result.cell_offsets.size() == n_configs + 1) {
        snap.rep_counts.reserve(n_configs);
        for (std::size_t c = 0; c < n_configs; ++c) {
          snap.rep_counts.push_back(result.cell_offsets[c + 1] - result.cell_offsets[c]);
        }
      }
    }
    return snap;
  };

  // Per-worker trace sinks, merged into the caller's sink after the
  // join (TraceSink is deliberately single-threaded). Only pay for
  // tracing when the caller attached a sink.
  obs::TraceSink* parent_sink = obs::sink();
  std::vector<obs::TraceSink> worker_sinks(parent_sink != nullptr ? workers : 0);

  // Worker-slot contexts outlive the per-round threads: slot w is used
  // by exactly one thread per round, so its warm world carries across
  // round boundaries without synchronization.
  std::vector<std::unique_ptr<BackendContext>> contexts(workers);
  std::vector<std::string> context_errors(workers);
  std::vector<char> context_tried(workers, 0);

  const auto worker_body = [&](std::size_t worker_id) {
    std::optional<obs::ScopedAttach> attach;
    if (parent_sink != nullptr) {
      attach.emplace(worker_sinks[worker_id]);
      worker_sinks[worker_id].set_track_name(
          obs::kHarnessTrack, "campaign worker " + std::to_string(worker_id));
    }

    // Per-worker reusable backend state: worlds, buffers, and RNG
    // scratch stay warm across every cell this worker claims. Results
    // are byte-identical to stateless backend_.run() calls.
    //
    // make_context() runs inside the worker thread, so an exception
    // escaping it would hit std::terminate (no frame above us catches
    // on this thread). Catch it here and record the error: this
    // worker's claimed cells are marked failed with the context error
    // and the campaign keeps going. A deterministically-throwing
    // make_context throws in every worker, so every cell fails
    // identically regardless of worker count.
    std::unique_ptr<BackendContext>& context = contexts[worker_id];
    std::string& context_error = context_errors[worker_id];
    if (options_.reuse_contexts && !context_tried[worker_id]) {
      context_tried[worker_id] = 1;
      try {
        context = backend_.make_context();
      } catch (const std::exception& e) {
        context_error = std::string("make_context failed: ") + e.what();
      } catch (...) {
        context_error = "make_context failed: unknown exception";
      }
    }

    const double worker_t0 = obs::host_now_s();
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= work.size()) break;
      // Every claimed cell is resolved by this worker (run, cached,
      // replayed, failed, or interrupted), so claiming is completing
      // for telemetry purposes.
      if (telemetry) worker_cells[worker_id].fetch_add(1, std::memory_order_relaxed);
      CampaignCell& cell = work[i];
      const CellKey key = make_cell_key(backend_name, cell.config, cell.seed);

      if (options_.use_cache) {
        std::lock_guard<std::mutex> lock(cache_mutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
          cell.result = it->second;
          cell.result.from_cache = true;
          cache_hits.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }

      if (journal != nullptr) {
        if (const CellResult* rec = journal->find(cell.config.index, cell.rep, cell.seed)) {
          cell.result = *rec;
          cell.result.from_cache = true;
          journal_hits.fetch_add(1, std::memory_order_relaxed);
          if (rec->error.empty()) {
            if (options_.use_cache) {
              std::lock_guard<std::mutex> lock(cache_mutex_);
              cache_.emplace(key, cell.result);
            }
          } else {
            // A journaled failure is final (deterministic backends fail
            // the same way again); it still counts against the campaign
            // so the resumed accounting matches an uninterrupted run.
            failed.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
      }

      if (!context_error.empty()) {
        cell.result = CellResult{};
        cell.result.error = context_error;
        failed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }

      // Cooperative signal drain: once the interrupt flag is set (by a
      // SIGINT/SIGTERM handler, exec/interrupt.hpp), remaining cells are
      // marked interrupted -- the same not-failed / not-journaled drain
      // as budget exhaustion, so a rerun with the journal resumes
      // byte-identically from the finished cells.
      if (options_.interrupt != nullptr &&
          options_.interrupt->load(std::memory_order_relaxed)) {
        cell.result = CellResult{};
        cell.result.error = "interrupted: signal";
        interrupted.fetch_add(1, std::memory_order_relaxed);
        continue;
      }

      // Deterministic stand-in for a mid-campaign kill: once the budget
      // is spent, remaining cells are marked interrupted (not failed,
      // not journaled) so a resume executes exactly them.
      if (options_.cell_budget > 0 &&
          budget_used.fetch_add(1, std::memory_order_relaxed) >= options_.cell_budget) {
        cell.result = CellResult{};
        cell.result.error = "interrupted: cell budget exhausted";
        interrupted.fetch_add(1, std::memory_order_relaxed);
        continue;
      }

      // Replication-boundary audit baseline: thread-local tallies make
      // the deltas exact even with every worker measuring at once.
      const std::uint64_t frames0 = sim::FramePool::local().heap_allocs();
      const std::uint64_t spills0 = sim::callback_heap_spills_local();
      [[maybe_unused]] const double t0 = obs::host_now_s();
      // Bounded retry. Attempt k > 0 uses the deterministically derived
      // seed splitmix64(cell.seed ^ k), so the attempt sequence -- and
      // therefore the final outcome -- is a pure function of the cell,
      // independent of scheduling and worker count.
      for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
          retries.fetch_add(1, std::memory_order_relaxed);
          if (options_.retry_backoff_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(options_.retry_backoff_ms * attempt));
          }
        }
        std::uint64_t attempt_state = cell.seed ^ attempt;
        const std::uint64_t attempt_seed =
            attempt == 0 ? cell.seed : rng::splitmix64_next(attempt_state);
        try {
          cell.result = context != nullptr ? context->run(cell.config, attempt_seed)
                                           : backend_.run(cell.config, attempt_seed);
          cell.result.from_cache = false;
        } catch (const std::exception& e) {
          cell.result = CellResult{};
          cell.result.error = e.what();
        } catch (...) {
          cell.result = CellResult{};
          cell.result.error = "unknown backend exception";
        }
        cell.result.attempts = attempt + 1;
        if (cell.result.error.empty()) break;
      }
      cell.result.coro_frame_heap_allocs =
          sim::FramePool::local().heap_allocs() - frames0;
      cell.result.callback_heap_spills = sim::callback_heap_spills_local() - spills0;
      SCI_TRACE_COMPLETE(obs::kHarnessTrack, "campaign.cell", "exec", t0,
                         obs::host_now_s() - t0,
                         {obs::TraceArg{"config", cell.config.index},
                          obs::TraceArg{"rep", cell.rep},
                          obs::TraceArg{"samples", cell.result.samples.size()},
                          obs::TraceArg{"attempts", cell.result.attempts},
                          obs::TraceArg{"failed", cell.result.error.empty() ? 0 : 1}});

      if (journal != nullptr) {
        journal->append(cell.config.index, cell.rep, cell.seed, cell.result);
      }
      if (cell.result.error.empty()) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (telemetry) {
          samples_executed.fetch_add(cell.result.samples.size(),
                                     std::memory_order_relaxed);
        }
        if (options_.use_cache) {
          std::lock_guard<std::mutex> lock(cache_mutex_);
          cache_.emplace(key, cell.result);
        }
      } else {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (telemetry) worker_busy[worker_id] += obs::host_now_s() - worker_t0;
  };

  // Heartbeat monitor: its own thread so sink I/O never blocks a
  // worker, started only when someone is listening.
  std::thread monitor;
  std::mutex monitor_mutex;
  std::condition_variable monitor_cv;
  bool monitor_stop = false;
  if (options_.progress != nullptr && options_.heartbeat_period_s > 0.0) {
    const auto period = std::chrono::duration<double>(options_.heartbeat_period_s);
    monitor = std::thread([&] {
      std::unique_lock<std::mutex> lock(monitor_mutex);
      while (!monitor_cv.wait_for(lock, period, [&] { return monitor_stop; })) {
        lock.unlock();
        options_.progress->on_heartbeat(make_snapshot(/*finished=*/false));
        lock.lock();
      }
    });
  }
  const auto stop_monitor = [&] {
    if (!monitor.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(monitor_mutex);
      monitor_stop = true;
    }
    monitor_cv.notify_all();
    monitor.join();
  };

  const auto run_round = [&] {
    next.store(0, std::memory_order_relaxed);
    if (workers == 1) {
      // In-thread execution keeps single-worker runs trivially
      // debuggable (and lets HostBackend cells inherit the caller's
      // thread state).
      worker_body(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker_body, w);
      for (auto& t : pool) t.join();
    }
  };

  // -------------------------------------------------------- round loop
  // Fixed mode: exactly one round holding the whole grid. Sequential
  // mode: after each round, live configs are tested for convergence on
  // their pooled samples (fed strictly in (config, rep) order, so the
  // decision stream is a pure function of the campaign -- worker count
  // and round timing can't touch it), retirees journal their stop
  // decision, and the next round's budget is granted widest-CI-first.
  std::size_t round = 0;
  while (!work.empty()) {
    run_round();
    ++round;
    rounds_done.store(round, std::memory_order_relaxed);

    bool round_interrupted = false;
    for (auto& cell : work) {
      ConfigState& st = state[cell.config.index];
      if (cell.result.error.empty()) {
        if (sequential)
          st.series.add(std::span<const double>(cell.result.samples));
      } else if (cell.result.error.rfind("interrupted:", 0) == 0) {
        round_interrupted = true;
      }
      st.cells.push_back(std::move(cell));
    }
    work.clear();

    if (!sequential) break;
    if (round_interrupted) {
      // Budget exhausted mid-round: stop scheduling. No convergence
      // decisions are taken on the incomplete round; the resume
      // executes the interrupted cells, reaches this barrier with the
      // full round's data, and decides identically to an uninterrupted
      // run. (Configs still live at exit are exactly the budget
      // casualties; they get stop_reason "interrupted" below.)
      break;
    }

    // Convergence evaluation (main thread, between rounds).
    for (std::size_t c = 0; c < n_configs; ++c) {
      ConfigState& st = state[c];
      if (st.retired) continue;
      double width = std::numeric_limits<double>::infinity();
      double ess = std::numeric_limits<double>::quiet_NaN();
      bool converged = false;
      if (st.series.count() > 5) {
        width = st.series.relative_ci_half_width(policy.quantile, policy.confidence);
        ess = st.series.effective_sample_size();
        converged = width <= policy.target_rel_ci_half_width &&
                    (policy.ess_floor <= 0.0 || ess >= policy.ess_floor);
      }
      st.width = width;
      if (!converged && st.scheduled < max_reps) continue;
      st.retired = true;
      st.info.reps = st.scheduled;
      st.info.stop_round = round;
      st.info.converged = converged;
      st.info.stop_reason = converged ? "converged" : "max_reps";
      if (st.series.count() > 5) {
        st.info.median = st.series.quantile(policy.quantile);
        st.info.rel_ci_half_width = width;
        st.info.ess = ess;
      }
      (converged ? configs_converged : configs_capped)
          .fetch_add(1, std::memory_order_relaxed);
      // Journal the stop decision. On resume the decision is recomputed
      // from the replayed samples; the record is the cross-run
      // consistency check -- a mismatch means the journal belongs to a
      // different campaign or policy than the fingerprint suggested.
      if (journal != nullptr) {
        if (const CampaignJournal::StopRecord* rec = journal->find_stop(c)) {
          if (rec->reps != st.info.reps || rec->reason != st.info.stop_reason) {
            throw std::runtime_error(
                "campaign journal: stop record mismatch for config " +
                std::to_string(c) + " (journal: reps=" + std::to_string(rec->reps) +
                " reason=" + rec->reason + ", recomputed: reps=" +
                std::to_string(st.info.reps) + " reason=" + st.info.stop_reason + ")");
          }
        } else {
          journal->append_stop(c, st.info.reps, st.info.stop_reason);
        }
      }
    }

    // Schedule the next round: every live config gets its quantum
    // (capped at max_reps); the budget freed by retired configs is
    // re-granted one rep at a time in deterministic rank order --
    // widest relative CI first, CellKey hash then config index as
    // tie-breaks.
    std::vector<std::size_t> live;
    for (std::size_t c = 0; c < n_configs; ++c) {
      if (!state[c].retired) live.push_back(c);
    }
    if (live.empty()) break;
    std::vector<std::size_t> alloc(n_configs, 0);
    for (std::size_t c : live) {
      alloc[c] = std::min(policy.round_quantum, max_reps - state[c].scheduled);
    }
    std::size_t freed = policy.round_quantum * (n_configs - live.size());
    std::vector<std::size_t> ranked = live;
    std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
      if (state[a].width != state[b].width) return state[a].width > state[b].width;
      if (state[a].tie_break != state[b].tie_break)
        return state[a].tie_break < state[b].tie_break;
      return a < b;
    });
    bool granted = true;
    while (freed > 0 && granted) {
      granted = false;
      for (std::size_t c : ranked) {
        if (freed == 0) break;
        if (state[c].scheduled + alloc[c] < max_reps) {
          ++alloc[c];
          --freed;
          granted = true;
        }
      }
    }
    for (std::size_t c : live) {
      if (alloc[c] > 0) schedule(c, alloc[c]);
    }
    scheduled_cells.fetch_add(work.size(), std::memory_order_relaxed);
  }

  if (parent_sink != nullptr) {
    for (std::size_t w = 0; w < workers; ++w) {
      parent_sink->merge(worker_sinks[w],
                         kWorkerTrackBase + static_cast<int>(w) * kWorkerTrackStride);
    }
  }

  stop_monitor();

  result.executed = executed.load();
  result.cache_hits = cache_hits.load();
  result.failed = failed.load();
  result.journal_hits = journal_hits.load();
  result.interrupted = interrupted.load();
  result.retries = retries.load();
  result.rounds = round;

  // Flatten per-config state into the canonical (config.index, rep)
  // cell order with explicit offsets; fill the fixed-mode /
  // interrupted stop info for configs that never retired.
  result.cell_offsets.assign(n_configs + 1, 0);
  std::size_t total_cells = 0;
  for (std::size_t c = 0; c < n_configs; ++c) {
    total_cells += state[c].cells.size();
    result.cell_offsets[c + 1] = total_cells;
  }
  result.cells.reserve(total_cells);
  result.stopping.reserve(n_configs);
  for (std::size_t c = 0; c < n_configs; ++c) {
    ConfigState& st = state[c];
    for (auto& cell : st.cells) result.cells.push_back(std::move(cell));
    if (!st.retired) {
      st.info.reps = st.scheduled;
      st.info.stop_round = round;
      st.info.converged = false;
      st.info.stop_reason = sequential ? "interrupted" : "fixed";
    }
    result.stopping.push_back(std::move(st.info));
  }

  // Rule 9 documentation of the adaptive design actually executed:
  // rounds taken and the per-config rep counts. Both are deterministic,
  // so exported CSV headers stay byte-identical at any worker count.
  if (sequential) {
    result.experiment.set("campaign.rounds", std::to_string(round));
    std::string counts;
    for (std::size_t c = 0; c < n_configs; ++c) {
      if (!counts.empty()) counts += ',';
      counts += std::to_string(result.cell_offsets[c + 1] - result.cell_offsets[c]);
    }
    result.experiment.set("campaign.rep_counts", counts);
  }

  // Final telemetry: one complete snapshot after the rounds finish
  // (finished is true even when the cell budget interrupted the grid --
  // the watcher learns exactly how far the run got), written atomically
  // so no reader sees a torn metrics file.
  if (telemetry) {
    const ProgressSnapshot snapshot = make_snapshot(/*finished=*/true);
    if (!options_.metrics_path.empty()) {
      obs::write_file_atomic(options_.metrics_path, snapshot.to_json());
    }
    if (options_.progress != nullptr) options_.progress->on_complete(snapshot);
  }

  // Rule 9 damage report: partially-failed campaigns export CSVs whose
  // headers say exactly which cells are missing and why, instead of a
  // silently thinner grid. Cells are listed in grid order (bounded at
  // eight), so the header -- like everything else -- is independent of
  // scheduling. Interrupted cells are transient (a resume executes
  // them) and only annotated on the interrupted run itself, keeping the
  // resumed run's header identical to an uninterrupted one.
  if (result.failed > 0) {
    result.experiment.set("campaign.failed", std::to_string(result.failed));
    std::string detail;
    std::size_t listed = 0;
    for (const auto& cell : result.cells) {
      if (cell.result.error.empty() ||
          cell.result.error.rfind("interrupted:", 0) == 0) {
        continue;
      }
      if (listed == 8) {
        detail += "; +" + std::to_string(result.failed - listed) + " more";
        break;
      }
      if (!detail.empty()) detail += "; ";
      detail += "config " + std::to_string(cell.config.index) + " rep " +
                std::to_string(cell.rep) + ": " + cell.result.error;
      ++listed;
    }
    result.experiment.set("campaign.failed_cells", detail);
  }
  if (result.interrupted > 0) {
    result.experiment.set("campaign.interrupted", std::to_string(result.interrupted));
  }
  return result;
}

}  // namespace sci::exec
