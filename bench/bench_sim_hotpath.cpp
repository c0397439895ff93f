// Hot-path acceptance benchmark for the zero-allocation event engine
// and the selection-based bootstrap kernels, dogfooding the library's
// own methodology (Rules 5/7: median + 95% nonparametric CI, never a
// bare mean of wall-clock times).
//
// Part 1 pits sim::Engine (InlineCallback + chunked event arena +
// 4-ary key heap) against a faithful replica of the previous
// implementation (std::function + std::priority_queue, including its
// per-event trace check and queue high-water tracking) across three
// workload regimes: a thin self-rescheduling tick (pure dispatch
// overhead), a fat tick whose capture is message-sized (the capture
// class std::function always heap-allocates), and a deep churn with
// ~16k concurrent event chains (sift-dominated). Repetitions of the
// two engines are interleaved so drift hits both equally. Part 2 does
// the same for bootstrap_bca_ci of the median at n=1000 / B=10000,
// asserting the fast interval equals the callback-path interval bit
// for bit. Part 3 counts actual allocator calls (global operator new
// override) across a warmed steady-state dispatch loop and requires
// exactly zero, along with a zero delta on the
// engine.callback_heap_allocs obs counter.
//
// `--smoke` shrinks sizes for CI: invariants (bit-equality, zero
// allocations, identical event counts) are still asserted; the speedup
// targets are only evaluated in the full run and recorded in
// bench/RESULTS_sim_hotpath.md.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sim/engine.hpp"
#include "stats/bootstrap.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: every allocator call in the process goes through
// here, so "zero allocations" is an observed fact, not a claim. The
// override costs one relaxed atomic increment per call and applies to
// both engines equally; only the legacy engine allocates per event.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace sci;

namespace {

// ---------------------------------------------------------------------------
// The previous engine, replicated faithfully from before the arena
// rewrite: type-erased std::function callbacks (heap-allocated once the
// capture outgrows the library's tiny SBO), a std::priority_queue of
// whole events, and the same per-event trace check, high-water
// tracking, and once-per-run observability flush the real engine had.
// ---------------------------------------------------------------------------

class LegacyEngine {
 public:
  using Callback = std::function<void()>;

  void schedule_at(double time, Callback fn) {
    if (time < now_) throw std::logic_error("LegacyEngine::schedule_at: time in the past");
    queue_.push(Event{time, next_seq_++, std::move(fn)});
    if (queue_.size() > queue_hwm_) queue_hwm_ = queue_.size();
  }
  void schedule_after(double delay, Callback fn) { schedule_at(now_ + delay, std::move(fn)); }

  std::size_t run() {
    std::size_t processed = 0;
    const double run_start = now_;
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.time;
      SCI_TRACE_COUNTER(obs::kEngineTrack, "queue_depth", now_,
                        static_cast<double>(queue_.size()));
      ev.fn();
      ++processed;
    }
    dispatched_ += processed;
    if (processed != 0) {
      static obs::Counter& events = obs::counter(obs::keys::kEngineEvents);
      static obs::Counter& hwm = obs::counter(obs::keys::kEngineQueueHwm);
      events.add(processed);
      hwm.set_max(queue_hwm_);
      SCI_TRACE_COMPLETE(obs::kEngineTrack, "run", "engine", run_start, now_ - run_start,
                         {{"events", static_cast<double>(processed)}});
    }
    return processed;
  }

  [[nodiscard]] double now() const noexcept { return now_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t queue_hwm_ = 0;
  std::uint64_t dispatched_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads. Each returns the number of events dispatched.
// ---------------------------------------------------------------------------

/// Pure dispatch overhead: one self-rescheduling event, trivial capture.
template <typename EngineT>
struct ThinTick {
  EngineT& eng;
  std::size_t remaining;
  double acc = 0.0;

  std::size_t run() {
    eng.schedule_after(1e-6, [this] { tick(); });
    return eng.run();
  }
  void tick() {
    acc += 1.0;
    if (remaining-- > 0) eng.schedule_after(1e-6, [this] { tick(); });
  }
};

/// Message-shaped payload (48 bytes): with the bookkeeping pointers the
/// capture lands at 72 bytes -- exactly the capture size class simmpi's
/// delivery callbacks live in. std::function heap-allocates it every
/// event; InlineCallback (80-byte buffer) never does.
struct WirePayload {
  std::uint64_t seq = 0;
  double vals[5] = {};
};

/// Dispatch with a by-value message payload travelling on every event.
template <typename EngineT>
struct FatTick {
  EngineT* eng;
  std::size_t remaining;
  double* acc;
  WirePayload p;

  std::size_t run() {
    FatTick self = *this;
    eng->schedule_after(1e-6, [self]() mutable { self.step(); });
    return eng->run();
  }
  void step() {
    *acc += p.vals[0];
    if (remaining-- > 0) {
      FatTick next = *this;
      ++next.p.seq;
      eng->schedule_after(1e-6, [next]() mutable { next.step(); });
    }
  }
};

/// `chains` concurrent self-rescheduling chains at different cadences:
/// the pending set stays ~`chains` deep, so heap sifts dominate.
template <typename EngineT>
class Churn {
 public:
  Churn(std::size_t chains, std::size_t hops) : acc_(chains, 0.0), hops_(hops) {}

  std::size_t run(EngineT& eng) {
    for (std::size_t c = 0; c < acc_.size(); ++c) {
      WirePayload p;
      p.vals[0] = 1.0;
      hop(eng, c, hops_, p);
    }
    return eng.run();
  }

  [[nodiscard]] double checksum() const {
    double s = 0.0;
    for (double v : acc_) s += v;
    return s;
  }

 private:
  void hop(EngineT& eng, std::size_t chain, std::size_t remaining, WirePayload p) {
    const double dt = 1e-6 * static_cast<double>((chain % 7) + 1);
    eng.schedule_at(eng.now() + dt, [this, &eng, chain, remaining, p] {
      acc_[chain] += p.vals[0];
      if (remaining > 0) {
        WirePayload next = p;
        ++next.seq;
        hop(eng, chain, remaining - 1, next);
      }
    });
  }

  std::vector<double> acc_;
  std::size_t hops_;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Summary {
  double median = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// Median + 95% nonparametric CI (order-statistic ranks) when n permits.
Summary summarize(const std::vector<double>& samples) {
  Summary s;
  const auto sorted = stats::sorted_copy(samples);
  s.median = stats::quantile_sorted(sorted, 0.5);
  if (sorted.size() > 5) {
    const auto ci = stats::quantile_confidence_interval_sorted(sorted, 0.5, 0.95);
    s.lo = ci.lower;
    s.hi = ci.upper;
  } else {
    s.lo = sorted.front();
    s.hi = sorted.back();
  }
  return s;
}

int g_failures = 0;
obs::BenchReporter* g_reporter = nullptr;  ///< set when --json DIR is given

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what);
    ++g_failures;
  }
}

// ---------------------------------------------------------------------------
// Part 1: events/sec, legacy vs arena engine, three regimes.
// ---------------------------------------------------------------------------

void report_pair(const char* workload, const char* slug,
                 const std::vector<double>& legacy_eps,
                 const std::vector<double>& arena_eps) {
  if (g_reporter != nullptr) {
    g_reporter->add_metric(std::string(slug) + ".legacy", "ev/s", legacy_eps,
                           obs::Improve::kHigher);
    g_reporter->add_metric(std::string(slug) + ".arena", "ev/s", arena_eps,
                           obs::Improve::kHigher);
  }
  const Summary legacy = summarize(legacy_eps);
  const Summary arena = summarize(arena_eps);
  std::printf("  %-28s legacy %6.2f Mev/s [%6.2f, %6.2f]   arena %6.2f Mev/s [%6.2f, %6.2f]"
              "   speedup %.2fx\n",
              workload, legacy.median / 1e6, legacy.lo / 1e6, legacy.hi / 1e6,
              arena.median / 1e6, arena.lo / 1e6, arena.hi / 1e6,
              arena.median / legacy.median);
}

/// Interleaves `reps` timed runs of a workload on each engine.
template <typename RunLegacy, typename RunArena>
void duel(const char* name, const char* slug, std::size_t reps,
          std::size_t expected_events, RunLegacy run_legacy, RunArena run_arena) {
  std::vector<double> legacy_eps, arena_eps;
  for (std::size_t r = 0; r < reps; ++r) {
    {
      const double t0 = now_seconds();
      const std::size_t processed = run_legacy();
      const double dt = now_seconds() - t0;
      check(processed == expected_events, "legacy engine processed every event");
      legacy_eps.push_back(static_cast<double>(processed) / dt);
    }
    {
      const double t0 = now_seconds();
      const std::size_t processed = run_arena();
      const double dt = now_seconds() - t0;
      check(processed == expected_events, "arena engine processed every event");
      arena_eps.push_back(static_cast<double>(processed) / dt);
    }
  }
  report_pair(name, slug, legacy_eps, arena_eps);
}

void bench_engine(bool smoke) {
  const std::size_t reps = smoke ? 3 : 9;
  std::printf("\n== engine micro-bench: median events/sec over %zu interleaved reps"
              " [95%% CI] ==\n", reps);

  const std::size_t ticks = smoke ? 20000 : 2000000;
  duel("thin tick (pure dispatch)", "thin_tick", reps, ticks + 1,
       [&] { LegacyEngine e; ThinTick<LegacyEngine> t{e, ticks}; return t.run(); },
       [&] { sim::Engine e; ThinTick<sim::Engine> t{e, ticks}; return t.run(); });

  duel("fat tick (72B capture)", "fat_tick", reps, ticks + 1,
       [&] {
         LegacyEngine e;
         double acc = 0.0;
         FatTick<LegacyEngine> t{&e, ticks, &acc, {}};
         return t.run();
       },
       [&] {
         sim::Engine e;
         double acc = 0.0;
         FatTick<sim::Engine> t{&e, ticks, &acc, {}};
         return t.run();
       });

  const std::size_t chains = smoke ? 256 : 16384;
  const std::size_t hops = smoke ? 7 : 11;
  double checksum_legacy = 0.0, checksum_arena = 0.0;
  duel("deep churn (16k chains)", "deep_churn", reps, chains * (hops + 1),
       [&] {
         LegacyEngine e;
         Churn<LegacyEngine> c(chains, hops);
         const std::size_t n = c.run(e);
         checksum_legacy = c.checksum();
         return n;
       },
       [&] {
         sim::Engine e;
         Churn<sim::Engine> c(chains, hops);
         const std::size_t n = c.run(e);
         checksum_arena = c.checksum();
         return n;
       });
  check(checksum_legacy == checksum_arena, "identical churn results across engines");
  std::printf("  (speedup target >= 3x on pure dispatch%s)\n",
              smoke ? "; smoke: not enforced" : "");
}

// ---------------------------------------------------------------------------
// Part 2: BCa bootstrap of the median, callback path vs selection path.
// ---------------------------------------------------------------------------

void bench_bootstrap(bool smoke) {
  const std::size_t n = smoke ? 200 : 1000;
  const std::size_t replicates = smoke ? 500 : 10000;
  const std::size_t reps = smoke ? 3 : 7;

  std::printf("\n== bootstrap_bca_ci(median): n=%zu, B=%zu, %zu reps ==\n", n, replicates,
              reps);

  rng::Xoshiro256 gen(0x5eed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng::lognormal(gen, 0.0, 0.5));

  const stats::Statistic generic_median = [](std::span<const double> s) {
    return stats::median(s);
  };
  const auto fast_median = stats::ResampleStat::median();

  std::vector<double> generic_s, fast_s;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::uint64_t seed = 100 + r;
    double t0 = now_seconds();
    const auto slow_ci = stats::bootstrap_bca_ci(xs, generic_median, replicates, 0.95, seed);
    generic_s.push_back(now_seconds() - t0);

    t0 = now_seconds();
    const auto fast_ci = stats::bootstrap_bca_ci(xs, fast_median, replicates, 0.95, seed);
    fast_s.push_back(now_seconds() - t0);

    check(slow_ci.lower == fast_ci.lower && slow_ci.upper == fast_ci.upper,
          "fast BCa interval bit-identical to callback path");
  }

  auto to_ms = [](std::vector<double>& v) {
    for (double& x : v) x *= 1e3;
  };
  to_ms(generic_s);
  to_ms(fast_s);
  if (g_reporter != nullptr) {
    g_reporter->add_metric("bca_median.generic", "ms", generic_s);
    g_reporter->add_metric("bca_median.fast", "ms", fast_s);
  }
  const Summary generic = summarize(generic_s);
  const Summary fast = summarize(fast_s);
  std::printf("  generic (Statistic)    median %8.1f ms   95%% CI [%8.1f, %8.1f]\n",
              generic.median, generic.lo, generic.hi);
  std::printf("  fast (ResampleStat)    median %8.1f ms   95%% CI [%8.1f, %8.1f]\n",
              fast.median, fast.lo, fast.hi);
  std::printf("  speedup (median/median): %.2fx  (target >= 2x)%s\n",
              generic.median / fast.median, smoke ? "  [smoke: not enforced]" : "");
}

// ---------------------------------------------------------------------------
// Part 3: zero allocations in the warmed steady-state dispatch loop.
// ---------------------------------------------------------------------------

void bench_allocations(bool smoke) {
  const std::size_t chains = 32;
  const std::size_t hops = smoke ? 64 : 1024;

  std::printf("\n== steady-state allocation audit ==\n");

  sim::Engine eng;
  obs::Counter& spills = obs::counter(obs::keys::kEngineCallbackHeapAllocs);

  // Warmup batch: grows the arena chunks and the heap vector to their
  // high-water capacity and touches every lazy registry slot.
  {
    Churn<sim::Engine> warm(chains, hops);
    (void)warm.run(eng);
  }

  // Measured batch: same shape, warm pools. Every schedule reuses a
  // freed arena slot; every callback fits InlineCallback's buffer.
  Churn<sim::Engine> churn(chains, hops);
  const std::uint64_t spills_before = spills.value();
  const std::uint64_t allocs_before = g_alloc_calls.load(std::memory_order_relaxed);
  const std::size_t processed = churn.run(eng);
  const std::uint64_t allocs = g_alloc_calls.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t spilled = spills.value() - spills_before;

  std::printf("  events dispatched: %zu\n", processed);
  std::printf("  operator new calls during steady state: %llu (target 0)\n",
              static_cast<unsigned long long>(allocs));
  std::printf("  engine.callback_heap_allocs delta: %llu (target 0)\n",
              static_cast<unsigned long long>(spilled));
  check(processed == chains * (hops + 1), "steady-state batch processed every event");
  check(allocs == 0, "zero allocator calls in steady-state dispatch");
  check(spilled == 0, "zero InlineCallback heap spills in steady state");
  if (g_reporter != nullptr) {
    g_reporter->add_counter("steady_state_alloc_calls", allocs);
    g_reporter->add_counter("steady_state_callback_heap_spills", spilled);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_dir = argv[++i];
  }
  obs::BenchReporter reporter("sim_hotpath");
  reporter.set_context("mode", smoke ? "smoke" : "full");
  if (!json_dir.empty()) g_reporter = &reporter;

  std::printf("sim hot-path benchmark (%s mode)\n", smoke ? "smoke" : "full");
  bench_engine(smoke);
  bench_bootstrap(smoke);
  bench_allocations(smoke);

  if (g_reporter != nullptr) {
    const std::string path = reporter.write_json(json_dir);
    if (path.empty()) {
      std::printf("FAILED: could not write BENCH json into %s\n", json_dir.c_str());
      ++g_failures;
    } else {
      std::printf("\nwrote %s\n", path.c_str());
    }
  }
  if (g_failures != 0) {
    std::printf("\n%d invariant check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall invariants held (bit-equality, event counts, zero-allocation)\n");
  return 0;
}
