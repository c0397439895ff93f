#include "exec/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "exec/csv_export.hpp"
#include "exec/journal.hpp"
#include "obs/bench_report.hpp"
#include "obs/trace.hpp"
#include "stats/online.hpp"

namespace sci::exec {

std::uint64_t cell_hash(std::string_view backend_name, const Config& config,
                        std::uint64_t seed) {
  std::uint64_t state = seed ^ 0xa0761d6478bd642fULL;
  state = rng::splitmix64_next(state) ^ backend_name.size();
  for (unsigned char c : backend_name) state = rng::splitmix64_next(state) ^ c;
  return config.hash(rng::splitmix64_next(state));
}

CellKey make_cell_key(std::shared_ptr<const std::string> identity,
                      std::string_view backend_name, const Config& config,
                      std::uint64_t seed) {
  return CellKey{std::move(identity), config.levels, seed,
                 cell_hash(backend_name, config, seed)};
}

std::size_t ResultCache::cell_bytes(const CellKey& key, const Entry& entry) {
  std::size_t bytes = sizeof(CellKey) + sizeof(Entry) + 4 * sizeof(void*);
  for (const auto& [factor, level] : key.levels) {
    bytes += sizeof(key.levels[0]) + factor.capacity() + level.capacity();
  }
  const CellResult& result = entry.result;
  bytes += result.samples.capacity() * sizeof(double);
  bytes += result.unit.capacity() + result.stop_reason.capacity() + result.error.capacity();
  // The text's allocation also holds the shared_ptr's control block.
  if (entry.csv) bytes += entry.csv->bytes() + 2 * sizeof(void*);
  return bytes;
}

std::optional<CellResult> ResultCache::find(const CellKey& key,
                                            std::shared_ptr<const CellCsv>* csv) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto found = [csv](const Entry& entry) {
    if (csv != nullptr) *csv = entry.csv;
    return entry.result;
  };
  if (const auto it = newer_.find(key); it != newer_.end()) return found(it->second);
  const auto it = older_.find(key);
  if (it == older_.end()) return std::nullopt;
  const std::size_t cost = cell_bytes(it->first, it->second);
  Generation::node_type node = older_.extract(it);
  older_bytes_ -= cost;
  make_room(cost);
  std::optional<CellResult> result = found(node.mapped());
  newer_.insert(std::move(node));
  newer_bytes_ += cost;
  return result;
}

void ResultCache::insert(const CellKey& key, const CellResult& result,
                         std::shared_ptr<const CellCsv> csv) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Generation* held : {&newer_, &older_}) {
    const auto it = held->find(key);
    if (it == held->end()) continue;
    // A held cell only ever gains its text; it enters the newer
    // generation again at its new cost, as a hit would.
    if (it->second.csv || !csv) return;
    (held == &newer_ ? newer_bytes_ : older_bytes_) -= cell_bytes(it->first, it->second);
    held->erase(it);
    break;
  }
  Entry entry{result, std::move(csv)};
  std::size_t cost = cell_bytes(key, entry);
  if (cost > kResultCacheBytes / 2 && entry.csv) {  // keep the cell without its text
    entry.csv.reset();
    cost = cell_bytes(key, entry);
  }
  if (cost > kResultCacheBytes / 2) return;
  make_room(cost);
  newer_.emplace(key, std::move(entry));
  newer_bytes_ += cost;
}

void ResultCache::make_room(std::size_t cost) {
  if (newer_bytes_ + cost <= kResultCacheBytes / 2) return;
  evicted_ += older_.size();
  older_ = std::move(newer_);
  older_bytes_ = newer_bytes_;
  newer_.clear();
  newer_bytes_ = 0;
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  newer_.clear();
  older_.clear();
  newer_bytes_ = 0;
  older_bytes_ = 0;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return newer_.size() + older_.size();
}

std::size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return newer_bytes_ + older_bytes_;
}

std::size_t ResultCache::evicted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

std::size_t CampaignResult::rep_count(std::size_t config_index) const {
  if (config_index >= configs || cell_offsets.size() != configs + 1)
    throw std::out_of_range(
        "CampaignResult::rep_count: config out of range or cell_offsets not filled");
  return cell_offsets[config_index + 1] - cell_offsets[config_index];
}

const CampaignCell& CampaignResult::cell(std::size_t config_index, std::size_t rep) const {
  if (rep >= rep_count(config_index))
    throw std::out_of_range("CampaignResult::cell: rep out of range");
  return cells.at(cell_offsets[config_index] + rep);
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

CampaignRunner::CampaignRunner(Backend& backend, Campaign campaign,
                               CampaignRunnerOptions options, ResultCache* cache)
    : backend_(backend),
      campaign_(std::move(campaign)),
      options_(std::move(options)),
      cache_(cache != nullptr ? *cache : own_cache_) {}

std::size_t CampaignRunner::cache_size() const { return cache_.size(); }

void CampaignRunner::clear_cache() { cache_.clear(); }

namespace {

using Counter = std::atomic<std::size_t>;

std::size_t load(const Counter& counter) { return counter.load(std::memory_order_relaxed); }
void bump(Counter& counter, std::size_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

bool is_interrupted(const CellResult& result) {
  return result.error.rfind("interrupted:", 0) == 0;
}

void set_error(CellResult& result, std::string error) {
  result = CellResult{};
  result.error = std::move(error);
}

/// The run's one tally, read by the CampaignResult and every snapshot.
struct Tally {
  Counter executed{0}, cache_hits{0}, failed{0}, journal_hits{0}, interrupted{0};
  Counter retries{0}, samples_executed{0};
  Counter scheduled_cells{0}, rounds{0}, configs_converged{0}, configs_capped{0};

  /// Copies the cell counts into a CampaignResult or a ProgressSnapshot.
  template <class Out>
  void read_into(Out& out) const {
    out.executed = load(executed);
    out.cache_hits = load(cache_hits);
    out.failed = load(failed);
    out.journal_hits = load(journal_hits);
    out.interrupted = load(interrupted);
    out.retries = load(retries);
  }
};

// ------------------------------------------------------------ planner

/// Per-config round state. Completed cells accumulate here in rep order
/// and are flattened into the result by assemble(); the pooled sample
/// accumulator drives the sequential stop decisions.
struct ConfigState {
  std::vector<CampaignCell> cells;
  stats::OnlineSeries series;
  std::size_t scheduled = 0;  ///< reps scheduled so far
  bool retired = false;
  double width = std::numeric_limits<double>::infinity();
  std::uint64_t tie_break = 0;  ///< CellKey hash of rep 0 (rank tie-break)
  ConfigStopInfo info;
};

/// The pure round planner: round state in, stop decisions and the next
/// round's cells out, with no I/O, clock or worker in sight. Fixed mode
/// is one round holding the whole grid; sequential mode feeds pooled
/// samples strictly in (config, rep) order, so its decisions are a pure
/// function of the campaign.
struct RoundPlanner {
  const Campaign& campaign;
  const StoppingPolicy& policy = campaign.spec().stopping;
  const bool sequential = policy.sequential();
  const std::size_t max_reps = sequential ? policy.max_reps : campaign.spec().replications;
  const std::vector<Config> grid = campaign.configs();
  std::vector<ConfigState> state = std::vector<ConfigState>(grid.size());

  /// Sets up the per-config state and returns the first round: min_reps
  /// of every config, in (config.index, rep) order.
  [[nodiscard]] std::vector<CampaignCell> first_round(const std::string& backend_name) {
    std::vector<CampaignCell> cells;
    for (std::size_t c = 0; c < grid.size(); ++c) {
      state[c].series = stats::OnlineSeries(sequential ? policy.max_lag : 1);
      if (sequential) {
        state[c].tie_break = cell_hash(backend_name, grid[c], campaign.seed_for(grid[c], 0));
      }
      schedule(c, sequential ? policy.min_reps : campaign.spec().replications, cells);
    }
    return cells;
  }

  /// Files a finished round's cells; true when it was interrupted.
  bool absorb(std::vector<CampaignCell>& round) {
    bool interrupted = false;
    for (auto& cell : round) {
      ConfigState& st = state[cell.config.index];
      if (cell.result.error.empty()) {
        if (sequential) st.series.add(std::span<const double>(cell.result.samples));
      } else if (is_interrupted(cell.result)) {
        interrupted = true;
      }
      st.cells.push_back(std::move(cell));
    }
    round.clear();
    return interrupted;
  }

  /// Retires the live configs that converged or hit max_reps after
  /// `round` (appending them to `retired`) and returns the next round:
  /// every live config gets its quantum (capped at max_reps); the
  /// budget freed by retired configs is re-granted one rep at a time in
  /// deterministic rank order -- widest relative CI first, CellKey hash
  /// then config index as tie-breaks.
  [[nodiscard]] std::vector<CampaignCell> plan(std::size_t round,
                                               std::vector<std::size_t>& retired) {
    std::vector<std::size_t> live;
    for (std::size_t c = 0; c < state.size(); ++c) {
      if (!state[c].retired && retire(state[c], round)) retired.push_back(c);
      if (!state[c].retired) live.push_back(c);
    }
    std::vector<CampaignCell> cells;  // stays empty once every config retired
    std::vector<std::size_t> alloc(state.size(), 0);
    for (std::size_t c : live) {
      alloc[c] = std::min(policy.round_quantum, max_reps - state[c].scheduled);
    }
    std::size_t freed = policy.round_quantum * (state.size() - live.size());
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
      if (alloc[c] > 0) schedule(c, alloc[c], cells);
    }
    return cells;
  }

  /// True when a live config retires (rank-CI criterion or max_reps).
  bool retire(ConfigState& st, std::size_t round) const {
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
    if (!converged && st.scheduled < max_reps) return false;
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
    return true;
  }

  void schedule(std::size_t c, std::size_t count, std::vector<CampaignCell>& out) {
    ConfigState& st = state[c];
    for (std::size_t r = st.scheduled; r < st.scheduled + count; ++r) {
      CampaignCell cell;
      cell.config = grid[c];
      cell.rep = r;
      cell.seed = campaign.seed_for(grid[c], r);
      out.push_back(std::move(cell));
    }
    st.scheduled += count;
  }
};

/// Journals a stop decision. On resume the decision is recomputed from
/// the replayed samples; the record is the cross-run consistency check
/// -- a mismatch means the journal belongs to a different campaign or
/// policy than the fingerprint suggested.
void journal_stop(CampaignJournal& journal, std::size_t c, const ConfigStopInfo& info) {
  const CampaignJournal::StopRecord* rec = journal.find_stop(c);
  if (rec == nullptr) {
    journal.append_stop(c, info.reps, info.stop_reason);
  } else if (rec->reps != info.reps || rec->reason != info.stop_reason) {
    throw std::runtime_error("campaign journal: stop record mismatch for config " +
                             std::to_string(c) + " (journal: reps=" +
                             std::to_string(rec->reps) + " reason=" + rec->reason +
                             ", recomputed: reps=" + std::to_string(info.reps) +
                             " reason=" + info.stop_reason + ")");
  }
}

// ---------------------------------------------------------- observers

/// What watches a run without steering it: the tally, per-worker
/// telemetry and trace sinks, and the heartbeat monitor (which holds
/// `this`; the atomics make the struct non-copyable and non-movable).
/// With no sink and no metrics file the per-cell bookkeeping beyond the
/// tally is skipped (zero-cost contract).
struct RunObservers {
  const CampaignRunnerOptions& options;
  const Campaign& campaign;
  const std::string& backend_name;
  const std::size_t workers;
  const bool telemetry = options.progress != nullptr || !options.metrics_path.empty();
  Tally tally{};
  obs::TraceSink* const parent_sink = obs::sink();
  std::vector<obs::TraceSink> trace_sinks =
      std::vector<obs::TraceSink>(parent_sink != nullptr ? workers : 0);
  std::vector<Counter> worker_cells = std::vector<Counter>(telemetry ? workers : 0);
  std::vector<double> worker_busy = std::vector<double>(telemetry ? workers : 0);
  const obs::CounterSnapshot counters_at_start =
      telemetry ? obs::CounterRegistry::instance().snapshot() : obs::CounterSnapshot{};
  const double t0 = obs::host_now_s();
  std::promise<void> stop_heartbeats{};
  std::thread monitor = start_monitor();

  ~RunObservers() { stop_monitor(); }

  /// Heartbeats come from their own thread so sink I/O never blocks a
  /// worker, started only when someone is listening.
  std::thread start_monitor() {
    if (options.progress == nullptr || options.heartbeat_period_s <= 0.0) return {};
    return std::thread([this, stopped = stop_heartbeats.get_future()] {
      const auto period = std::chrono::duration<double>(options.heartbeat_period_s);
      while (stopped.wait_for(period) == std::future_status::timeout) {
        options.progress->on_heartbeat(snapshot(nullptr));
      }
    });
  }

  void stop_monitor() {
    if (!monitor.joinable()) return;
    stop_heartbeats.set_value();
    monitor.join();
  }

  /// Worker w's own trace sink (TraceSink is single-threaded), if any.
  [[nodiscard]] obs::TraceSink* trace_sink(std::size_t w) {
    if (w >= trace_sinks.size()) return nullptr;
    trace_sinks[w].set_track_name(obs::kHarnessTrack,
                                  "campaign worker " + std::to_string(w));
    return &trace_sinks[w];
  }

  /// Every claimed cell is resolved by its worker (run, cached, replayed,
  /// failed or interrupted), so claiming is completing for telemetry.
  void claimed(std::size_t w, std::size_t cells) {
    if (telemetry) bump(worker_cells[w], cells);
  }

  void busy(std::size_t w, double seconds) {
    if (telemetry) worker_busy[w] += seconds;
  }

  /// A run of a chunk's cells that the backend ran successfully or the
  /// result cache served.
  void on_cells(std::span<const CampaignCell> cells) {
    if (cells.empty()) return;
    if (telemetry) {
      for (const CampaignCell& cell : cells) {
        if (!cell.result.from_cache) bump(tally.samples_executed, cell.result.samples.size());
      }
    }
    if (options.progress != nullptr) options.progress->on_cells(cells);
  }

  /// After the last round: merges worker traces, stops heartbeats.
  void finish() {
    for (std::size_t w = 0; w < trace_sinks.size(); ++w) {
      parent_sink->merge(trace_sinks[w],
                         kWorkerTrackBase + static_cast<int>(w) * kWorkerTrackStride);
    }
    stop_monitor();
  }

  /// Final telemetry: one complete snapshot (finished is true even when
  /// the cell budget interrupted the grid -- the watcher learns exactly
  /// how far the run got), written atomically so no reader sees a torn
  /// metrics file.
  void complete(const CampaignResult& result) {
    if (!telemetry) return;
    const ProgressSnapshot snap = snapshot(&result);
    if (!options.metrics_path.empty()) {
      obs::write_file_atomic(options.metrics_path, snap.to_json());
    }
    if (options.progress != nullptr) options.progress->on_complete(snap);
  }

  /// Heartbeats (`done` null) read only the counters, never the cells
  /// workers are still writing; samples_total, rep_counts and per-worker
  /// busy time are final-snapshot facts.
  [[nodiscard]] ProgressSnapshot snapshot(const CampaignResult* done) const {
    ProgressSnapshot snap;
    snap.campaign = campaign.spec().name;
    snap.backend = backend_name;
    snap.total_cells = load(tally.scheduled_cells);
    tally.read_into(snap);
    snap.completed = snap.executed + snap.failed + snap.cache_hits + snap.journal_hits +
                     snap.interrupted;
    snap.samples_executed = load(tally.samples_executed);
    snap.elapsed_s = obs::host_now_s() - t0;
    snap.finished = done != nullptr;
    snap.workers.resize(worker_busy.size());
    for (std::size_t w = 0; w < snap.workers.size(); ++w) {
      snap.workers[w].cells = load(worker_cells[w]);
      snap.workers[w].busy_s = done != nullptr ? worker_busy[w] : snap.elapsed_s;
    }
    snap.counter_delta = obs::snapshot_delta(counters_at_start,
                                             obs::CounterRegistry::instance().snapshot());
    snap.sequential = campaign.spec().stopping.sequential();
    snap.configs_total = snap.sequential ? campaign.config_count() : 0;
    snap.configs_converged = load(tally.configs_converged);
    snap.configs_capped = load(tally.configs_capped);
    snap.rounds = load(tally.rounds);
    if (done != nullptr) {
      for (const auto& cell : done->cells) {
        if (cell.result.error.empty()) snap.samples_total += cell.result.samples.size();
      }
      for (std::size_t c = 0; snap.sequential && c < done->configs; ++c) {
        snap.rep_counts.push_back(done->rep_count(c));
      }
    }
    return snap;
  }
};

// ----------------------------------------------------------- executor

/// Gives a backend without a context of its own the BackendContext
/// interface, so every cell takes one dispatch path.
class StatelessContext final : public BackendContext {
 public:
  explicit StatelessContext(Backend& backend) : backend_(backend) {}
  [[nodiscard]] CellResult run(const Config& config, std::uint64_t seed) override {
    return backend_.run(config, seed);
  }

 private:
  Backend& backend_;
};

/// The cell executor. Each round, workers claim contiguous chunks of
/// cells through a shared counter and write only their own, so the
/// round's assembled order never depends on scheduling. Chunk sizes
/// follow guided self-scheduling: ceil(remaining / (4 * workers)) cells,
/// at least one, so early chunks are long (one BackendContext::run_batch
/// call each) and the tail is single cells that keep workers finishing
/// together. Its threads hold `this`; the atomics make the struct
/// non-copyable and non-movable.
struct CellExecutor {
  /// A worker slot's warm backend state. Slot w is used by exactly one
  /// thread per round, so it carries across rounds unsynchronized.
  struct Slot {
    std::unique_ptr<BackendContext> context;  ///< set once tried, unless `error`
    std::string error;                        ///< why make_context() failed
    bool tried = false;
  };

  /// One worker's per-chunk buffers, reused from chunk to chunk.
  struct Scratch {
    std::vector<BatchCell> batch;   ///< the chunk's cells that still need running
    std::vector<std::size_t> at;    ///< chunk offset of batch[j]
    std::vector<CellKey> keys;      ///< cache key of batch[j]
    std::vector<char> reported;     ///< chunk cell goes to ProgressSink::on_cells
  };

  /// What the steps before dispatch left of a cell.
  enum class Admit {
    kRun,      ///< still needs the backend
    kCached,   ///< served by the result cache
    kSettled,  ///< replayed from the journal, failed by the context, or interrupted
  };

  Backend& backend;
  const std::string& backend_name;
  const std::shared_ptr<const std::string>& identity;  ///< Backend::identity()
  const CampaignRunnerOptions& options;
  CampaignJournal* journal;
  ResultCache& cache;
  RunObservers& observers;
  std::vector<CampaignCell>& work;  ///< the current round
  threads::ThreadTeam& team;
  std::vector<Slot> slots;
  const bool export_csv = !options.samples_csv.empty() || !options.summary_csv.empty();
  Counter next{0};
  Counter budget_used{0};

  /// The caller is worker 0: a one-worker run stays on the calling
  /// thread, debuggable, and HostBackend cells inherit its thread state.
  void run_round() {
    next.store(0, std::memory_order_relaxed);
    team.run([this](std::size_t w) { worker(w); });
  }

  void worker(std::size_t w) {
    std::optional<obs::ScopedAttach> attach;
    if (obs::TraceSink* sink = observers.trace_sink(w)) attach.emplace(*sink);
    // make_context() runs inside the worker thread, so an exception
    // escaping it would hit std::terminate. Record it instead: this
    // worker's cells fail with the context error and the campaign keeps
    // going. A deterministically-throwing make_context throws in every
    // worker, so every cell fails identically regardless of worker count.
    Slot& slot = slots[w];
    if (!slot.tried) {
      slot.tried = true;
      try {
        slot.context = backend.make_context();
        if (!slot.context) slot.context = std::make_unique<StatelessContext>(backend);
      } catch (const std::exception& e) {
        slot.error = std::string("make_context failed: ") + e.what();
      } catch (...) {
        slot.error = "make_context failed: unknown exception";
      }
    }
    const double t0 = obs::host_now_s();
    const std::size_t total = work.size();
    const std::size_t spread = 4 * slots.size();
    Scratch scratch;
    for (;;) {
      // The size comes from a possibly stale count; fetch_add still hands
      // every cell to exactly one worker.
      const std::size_t seen = next.load(std::memory_order_relaxed);
      if (seen >= total) break;
      const std::size_t size = std::max<std::size_t>(1, (total - seen + spread - 1) / spread);
      const std::size_t begin = next.fetch_add(size, std::memory_order_relaxed);
      if (begin >= total) break;
      const std::size_t end = std::min(total, begin + size);
      observers.claimed(w, end - begin);
      run_chunk(std::span<CampaignCell>(work).subspan(begin, end - begin), slot, scratch);
    }
    observers.busy(w, obs::host_now_s() - t0);
  }

  /// Resolves one claimed chunk: the per-cell steps before dispatch,
  /// one run_batch for the cells left to run, the per-cell steps after
  /// it, then the chunk's reported cells to the progress hook.
  void run_chunk(std::span<CampaignCell> chunk, const Slot& slot, Scratch& s) {
    s.batch.clear();
    s.at.clear();
    s.keys.clear();
    s.reported.assign(chunk.size(), 0);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      CampaignCell& cell = chunk[i];
      CellKey key = make_cell_key(identity, backend_name, cell.config, cell.seed);
      switch (admit(cell, slot, key)) {
        case Admit::kRun:
          s.batch.push_back(BatchCell{&cell.config, cell.seed, {}});
          s.at.push_back(i);
          s.keys.push_back(std::move(key));
          break;
        case Admit::kCached:
          s.reported[i] = 1;
          break;
        case Admit::kSettled:
          break;
      }
    }
    if (!s.batch.empty()) dispatch(chunk, *slot.context, s);
    std::size_t first = 0;
    for (std::size_t i = 0; i <= chunk.size(); ++i) {
      if (i < chunk.size() && s.reported[i] != 0) continue;
      observers.on_cells(chunk.subspan(first, i - first));
      first = i + 1;
    }
  }

  /// Keeps a successful cell in the cache, with its CSV text when the
  /// run writes CSVs: formatted here, on the worker, unless the cell
  /// already has it.
  void keep(const CellKey& key, CampaignCell& cell) {
    if (export_csv && !cell.csv) cell.csv = format_cell_csv(cell.result.samples);
    cache.insert(key, cell.result, cell.csv);
  }

  /// cache -> journal -> context error -> interrupt/budget.
  Admit admit(CampaignCell& cell, const Slot& slot, const CellKey& key) {
    Tally& tally = observers.tally;
    if (std::optional<CellResult> hit = cache.find(key, &cell.csv)) {
      cell.result = std::move(*hit);
      cell.result.from_cache = true;
      bump(tally.cache_hits);
      // Cached by a run that wrote no CSVs: its text is made once, now.
      if (export_csv && !cell.csv) keep(key, cell);
      return Admit::kCached;
    }
    if (journal != nullptr) {
      if (const CellResult* rec = journal->find(cell.config.index, cell.rep, cell.seed)) {
        cell.result = *rec;
        cell.result.from_cache = true;
        bump(tally.journal_hits);
        // A journaled failure is final (deterministic backends fail the
        // same way again); it still counts against the campaign so the
        // resumed accounting matches an uninterrupted run.
        if (rec->error.empty()) {
          keep(key, cell);
        } else {
          bump(tally.failed);
        }
        return Admit::kSettled;
      }
    }
    if (!slot.error.empty()) {
      set_error(cell.result, slot.error);
      bump(tally.failed);
      return Admit::kSettled;
    }
    // Drain: once the interrupt flag is set (by a SIGINT/SIGTERM
    // handler, exec/interrupt.hpp) or the cell budget -- a deterministic
    // stand-in for a mid-campaign kill -- is spent, remaining cells are
    // marked interrupted: not failed, not journaled, so a rerun with the
    // journal executes exactly them and resumes byte-identically. Cells
    // already admitted to a chunk's batch run to completion.
    const bool signalled =
        options.interrupt != nullptr && options.interrupt->load(std::memory_order_relaxed);
    if (signalled || (options.cell_budget > 0 && budget_used.fetch_add(
                                                     1, std::memory_order_relaxed) >=
                                                     options.cell_budget)) {
      set_error(cell.result,
                signalled ? "interrupted: signal" : "interrupted: cell budget exhausted");
      bump(tally.interrupted);
      return Admit::kSettled;
    }
    return Admit::kRun;
  }

  /// Attempt 0 of the batch in one run_batch call, then per cell: the
  /// retries, journal append and cache insert.
  void dispatch(std::span<CampaignCell> chunk, BackendContext& context, Scratch& s) {
    const bool traced = SCI_TRACE_ATTACHED();  // no sink: no clock reads
    const double t0 = traced ? obs::host_now_s() : 0.0;
    try {
      context.run_batch(s.batch);
    } catch (const std::exception& e) {
      // A cell's own throw is its error already; this is a failure of
      // the whole batch, such as a pool that cannot spawn a worker.
      for (BatchCell& b : s.batch) set_error(b.result, e.what());
    } catch (...) {
      for (BatchCell& b : s.batch) set_error(b.result, "unknown backend exception");
    }
    Tally& tally = observers.tally;
    std::size_t failed = 0;
    for (std::size_t j = 0; j < s.batch.size(); ++j) {
      CampaignCell& cell = chunk[s.at[j]];
      cell.result = std::move(s.batch[j].result);
      cell.result.from_cache = false;
      cell.result.attempts = 1;
      retry(cell, context);
      if (journal != nullptr) {
        journal->append(cell.config.index, cell.rep, cell.seed, cell.result);
      }
      if (!cell.result.error.empty()) {
        bump(tally.failed);
        ++failed;
        continue;
      }
      bump(tally.executed);
      keep(s.keys[j], cell);
      s.reported[s.at[j]] = 1;
    }
    if (traced) {
      SCI_TRACE_COMPLETE(obs::kHarnessTrack, "campaign.chunk", "exec", t0,
                         obs::host_now_s() - t0,
                         {obs::TraceArg{"config", chunk[s.at.front()].config.index},
                          obs::TraceArg{"rep", chunk[s.at.front()].rep},
                          obs::TraceArg{"cells", s.batch.size()},
                          obs::TraceArg{"failed", failed}});
    }
  }

  /// Bounded retry of a failed cell. Attempt k > 0 uses the
  /// deterministically derived seed splitmix64(cell.seed ^ k), so the
  /// attempt sequence -- and therefore the final outcome -- is a pure
  /// function of the cell, independent of scheduling and worker count.
  void retry(CampaignCell& cell, BackendContext& context) {
    const std::size_t max_attempts = std::max<std::size_t>(1, options.max_attempts);
    for (std::size_t attempt = 1; attempt < max_attempts && !cell.result.error.empty();
         ++attempt) {
      bump(observers.tally.retries);
      std::uint64_t attempt_state = cell.seed ^ attempt;
      const std::uint64_t seed = rng::splitmix64_next(attempt_state);
      try {
        cell.result = context.run(cell.config, seed);
        cell.result.from_cache = false;
      } catch (const std::exception& e) {
        set_error(cell.result, e.what());
      } catch (...) {
        set_error(cell.result, "unknown backend exception");
      }
      cell.result.attempts = attempt + 1;
    }
  }
};

// ----------------------------------------------------------- assembly

/// Flattens per-config state into the canonical (config.index, rep)
/// cell order and documents (Rule 9) the design executed and any damage.
CampaignResult assemble(const Campaign& campaign, const Backend& backend,
                        std::vector<ConfigState>& state, const Tally& tally,
                        std::size_t rounds) {
  const bool sequential = campaign.spec().stopping.sequential();
  CampaignResult result;
  result.experiment = campaign.experiment(&backend);
  result.replications = sequential ? 0 : campaign.spec().replications;
  result.configs = state.size();
  result.sequential = sequential;
  result.rounds = rounds;
  tally.read_into(result);

  result.cell_offsets.assign(state.size() + 1, 0);
  for (std::size_t c = 0; c < state.size(); ++c) {
    result.cell_offsets[c + 1] = result.cell_offsets[c] + state[c].cells.size();
  }
  result.cells.reserve(result.cell_offsets.back());
  result.stopping.reserve(state.size());
  for (ConfigState& st : state) {
    for (auto& cell : st.cells) result.cells.push_back(std::move(cell));
    if (!st.retired) {
      st.info.reps = st.scheduled;
      st.info.stop_round = rounds;
      st.info.converged = false;
      st.info.stop_reason = sequential ? "interrupted" : "fixed";
    }
    result.stopping.push_back(std::move(st.info));
  }

  // The adaptive design actually executed: rounds taken and per-config
  // rep counts. Both are deterministic, so exported CSV headers stay
  // byte-identical at any worker count.
  if (sequential) {
    result.experiment.set("campaign.rounds", std::to_string(rounds));
    std::string counts;
    for (std::size_t c = 0; c < state.size(); ++c) {
      if (!counts.empty()) counts += ',';
      counts += std::to_string(result.rep_count(c));
    }
    result.experiment.set("campaign.rep_counts", counts);
  }

  // Damage report: partially-failed campaigns export CSVs whose headers
  // say exactly which cells are missing and why, instead of a silently
  // thinner grid. Cells are listed in grid order (bounded at eight), so
  // the header -- like everything else -- is independent of scheduling.
  // Interrupted cells are transient (a resume executes them) and only
  // annotated on the interrupted run itself, keeping the resumed run's
  // header identical to an uninterrupted one.
  if (result.failed > 0) {
    result.experiment.set("campaign.failed", std::to_string(result.failed));
    std::string detail;
    std::size_t listed = 0;
    for (const auto& cell : result.cells) {
      if (cell.result.error.empty() || is_interrupted(cell.result)) continue;
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

}  // namespace

CampaignResult CampaignRunner::run() {
  const std::string backend_name = backend_.name();
  const auto identity = std::make_shared<const std::string>(backend_.identity());
  RoundPlanner planner{campaign_};
  std::vector<CampaignCell> work = planner.first_round(backend_name);
  if (!team_) {
    const std::size_t requested =
        options_.workers != 0 ? options_.workers : std::thread::hardware_concurrency();
    team_ = std::make_unique<threads::ThreadTeam>(
        std::max<std::size_t>(1, std::min(requested, work.size())));
  }
  const std::size_t workers = team_->size();

  // Crash-safe checkpoint/resume: completed cells append to the journal
  // as they finish, and a rerun with the same path replays them instead
  // of executing. Fingerprint mismatch (different campaign/backend)
  // throws here, before any cell runs.
  std::unique_ptr<CampaignJournal> journal;
  if (!options_.journal_path.empty()) {
    journal = std::make_unique<CampaignJournal>(
        options_.journal_path, CampaignJournal::fingerprint(campaign_, *identity));
  }

  RunObservers observers{options_, campaign_, backend_name, workers};
  CellExecutor executor{backend_, backend_name, identity, options_, journal.get(), cache_,
                        observers, work, *team_, std::vector<CellExecutor::Slot>(workers)};
  Tally& tally = observers.tally;
  bump(tally.scheduled_cells, work.size());
  std::size_t round = 0;
  while (!work.empty()) {
    executor.run_round();
    tally.rounds.store(++round, std::memory_order_relaxed);
    // An interrupted round takes no convergence decisions: the resume
    // executes the interrupted cells, reaches this barrier with the full
    // round's data, and decides identically to an uninterrupted run.
    // Configs still live at exit get stop_reason "interrupted".
    if (planner.absorb(work) || !planner.sequential) break;
    std::vector<std::size_t> retired;
    work = planner.plan(round, retired);
    for (const std::size_t c : retired) {
      const ConfigStopInfo& info = planner.state[c].info;
      bump(info.converged ? tally.configs_converged : tally.configs_capped);
      if (journal != nullptr) journal_stop(*journal, c, info);
    }
    bump(tally.scheduled_cells, work.size());
  }
  observers.finish();

  CampaignResult result = assemble(campaign_, backend_, planner.state, tally, round);
  observers.complete(result);
  export_csvs(result);
  return result;
}

void CampaignRunner::export_csvs(const CampaignResult& result) const {
  if (options_.samples_csv.empty() && options_.summary_csv.empty()) return;
  const bool traced = SCI_TRACE_ATTACHED();  // no sink: no clock reads
  const double t0 = traced ? obs::host_now_s() : 0.0;
  if (!options_.samples_csv.empty()) save_samples_csv(result, options_.samples_csv);
  if (!options_.summary_csv.empty()) save_summary_csv(result, options_.summary_csv);
  if (traced) {
    SCI_TRACE_COMPLETE(obs::kHarnessTrack, "campaign.export", "exec", t0,
                       obs::host_now_s() - t0, {obs::TraceArg{"cells", result.cells.size()}});
  }
}

}  // namespace sci::exec
