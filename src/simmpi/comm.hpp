// Message-passing interface over the discrete-event engine.
//
// World owns the machine model, one Comm per rank, mailboxes, and the
// rank programs (coroutines). Semantics mirror a small MPI subset:
// blocking and nonblocking send/recv with (source, tag) matching incl.
// wildcards, posted receives matched in posting order, FIFO
// non-overtaking per (src, dst) pair, and collectives built from
// point-to-point (see collectives.hpp).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "rng/xoshiro.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "sim/noise.hpp"
#include "sim/task.hpp"
#include "simmpi/clock.hpp"

namespace sci::obs {
class TraceSink;
}

namespace sci::simmpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::size_t bytes = 0;
  std::uint64_t seq = 0;  ///< world-unique message id (trace correlation)
  std::vector<double> payload;  ///< optional data for correctness checks
};

class World;

/// Completion handle for nonblocking operations. Copyable; all copies
/// observe the same completion.
class Request {
 public:
  Request() = default;

  /// True once the operation completed (message delivered / send done).
  [[nodiscard]] bool test() const noexcept { return state_ && state_->complete; }

  /// Awaitable: suspends until completion; returns the Message (empty
  /// payload/metadata for sends).
  struct WaitAwaitable;
  [[nodiscard]] WaitAwaitable wait();

 private:
  friend class Comm;
  friend class World;
  struct State {
    bool complete = false;
    Message msg;
    std::coroutine_handle<> waiter;
    /// Owns the state while its irecv is posted, so a Request dropped
    /// before the match cannot leave the mailbox entry dangling.
    std::shared_ptr<State> keep_alive;
  };
  std::shared_ptr<State> state_;
};

/// Per-rank traffic counters (the software-counter face of Section 6's
/// PAPI support: message and byte counts are exact in the simulator).
struct CommStats {
  std::uint64_t sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Per-rank communication endpoint, passed to rank programs.
class Comm {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  /// Local (skewed, drifting) clock reading in seconds -- the simulated
  /// MPI_Wtime. Measurement code must use this, not Engine::now().
  [[nodiscard]] double wtime() const noexcept;

  /// Awaitable: blocking eager send of `bytes` to `dst`.
  struct SendAwaitable;
  [[nodiscard]] SendAwaitable send(int dst, int tag, std::size_t bytes,
                                   std::vector<double> payload = {});

  /// Awaitable: blocking receive matching (src, tag); wildcards allowed.
  struct RecvAwaitable;
  [[nodiscard]] RecvAwaitable recv(int src, int tag);

  /// Nonblocking send: returns immediately; the Request completes once
  /// the sender-side resources are free (after overhead + any rendezvous
  /// handshake). The CPU overhead is charged to the wire path, not the
  /// caller -- await the Request before reusing the "buffer".
  [[nodiscard]] Request isend(int dst, int tag, std::size_t bytes,
                              std::vector<double> payload = {});

  /// Nonblocking receive: posts the match immediately, completes when a
  /// matching message is delivered.
  [[nodiscard]] Request irecv(int src, int tag);

  /// Awaitable: local computation of `pure_seconds`, perturbed by the
  /// machine's compute-noise model.
  struct ComputeAwaitable;
  [[nodiscard]] ComputeAwaitable compute(double pure_seconds);

  /// Awaitable: sleep until the *local* clock shows `local_time`.
  struct WaitLocalAwaitable;
  [[nodiscard]] WaitLocalAwaitable wait_until_local(double local_time);

  /// This rank's deterministic random stream (derived from world seed).
  [[nodiscard]] rng::Xoshiro256& rng() noexcept { return gen_; }

  /// Exact traffic counters for this rank.
  [[nodiscard]] const CommStats& stats() const noexcept { return stats_; }

  /// Total (perturbed) compute time this rank has spent so far.
  [[nodiscard]] double busy_seconds() const noexcept { return busy_s_; }

  [[nodiscard]] World& world() noexcept { return *world_; }
  [[nodiscard]] const LocalClock& clock() const noexcept { return clock_; }
  /// Physical node this rank is mapped to.
  [[nodiscard]] std::size_t node() const noexcept { return node_; }

 private:
  friend class World;
  World* world_ = nullptr;
  int rank_ = 0;
  std::size_t node_ = 0;
  LocalClock clock_;
  rng::Xoshiro256 gen_;
  CommStats stats_;
  double busy_s_ = 0.0;
};

namespace detail {

/// Trampoline: holds the program callable by value in its own (pooled)
/// coroutine frame. Rank programs are usually capturing lambdas;
/// without this, the closure (and its captures) would be destroyed
/// before the suspended coroutine first resumes inside Engine::run().
template <typename F>
sim::Task<void> run_rank_program(F program, Comm& comm) {
  co_await program(comm);
}

}  // namespace detail

/// A simulated job: machine + ranks + programs.
class World {
 public:
  /// Creates `ranks` processes on an allocation of `machine` nodes chosen
  /// by the batch policy. One rank per node if enough nodes exist,
  /// otherwise round-robin (packed allocations fill nodes first).
  World(sim::Machine machine, int ranks, std::uint64_t seed,
        sim::AllocationPolicy policy = sim::AllocationPolicy::kScattered);

  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World() { drop_posted(); }

  /// Rewinds this world to the state a freshly constructed
  /// World(machine, ranks, seed, policy) would have: same node
  /// allocation, clock skews, and per-rank RNG streams, drawn in the
  /// same order from the same seeder, so a reset world is seed-for-seed
  /// byte-identical to a new one. Unlike construction, reset keeps
  /// every buffer (mailboxes, FIFO clocks, route table, event arena),
  /// so replications after the first touch the heap only when they
  /// exceed a previous high-water mark.
  void reset(std::uint64_t seed);

  /// Launches `program(comm)` on every rank at time 0. `program` is any
  /// copyable callable Comm& -> sim::Task<void>; it is held by value in
  /// the trampoline coroutine's (pooled) frame, so launching allocates
  /// no std::function.
  template <typename F>
  void launch(const F& program) {
    for (int r = 0; r < size(); ++r) launch_on(r, program);
  }

  /// Launches a program on one specific rank.
  template <typename F>
  void launch_on(int rank, F program) {
    programs_.push_back(detail::run_rank_program(std::move(program), comm(rank)));
    const sim::Task<void>& task = programs_.back();
    engine_.schedule_at(engine_.now(), [&task] { task.start(); });
  }

  /// Runs the engine to completion. Throws if any rank is still blocked
  /// when the event queue drains (deadlock).
  std::size_t run();

  /// Runs until the event queue drains, tolerating ranks parked in recv.
  /// For request/response-style programs driven incrementally (launch a
  /// client, step, launch the next); finish with run() so completion and
  /// deadlock checks still execute once.
  std::size_t step();

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] Comm& comm(int rank) { return *comms_.at(static_cast<std::size_t>(rank)); }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(comms_.size()); }
  [[nodiscard]] const sim::Machine& machine() const noexcept { return machine_; }
  [[nodiscard]] const sim::Network& network() const noexcept { return network_; }
  [[nodiscard]] const std::vector<std::size_t>& allocation() const noexcept { return nodes_; }

  /// Total messages delivered so far (observability / tests).
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept { return delivered_; }

  /// Labels this world's tracks in a trace sink -- "rank r" per rank,
  /// plus wire and engine tracks -- so Perfetto shows one named lane
  /// per rank. Call once after constructing the sink.
  void name_trace_tracks(obs::TraceSink& sink) const;

  /// Job energy so far under the machine's power model (Joules): every
  /// allocated node idles for the whole makespan, compute adds its
  /// differential draw, and each message pays NIC + per-byte energy.
  [[nodiscard]] double energy_joules() const noexcept;

 private:
  friend class Comm;
  friend struct Comm::SendAwaitable;
  friend struct Comm::RecvAwaitable;

  /// One posted receive: a blocking recv resumes `waiter`, an irecv
  /// completes `request` (which owns itself through keep_alive while
  /// posted). Either way the matched message lands in *out.
  struct PostedRecv {
    int src;
    int tag;
    Message* out;
    std::coroutine_handle<> waiter;
    Request::State* request;
    double posted_at;  ///< when the receive was posted (late-sender attribution)

    [[nodiscard]] const char* span_name() const noexcept { return request ? "irecv" : "recv"; }
  };
  struct Mailbox {
    std::vector<Message> unexpected;
    std::vector<PostedRecv> posted;  ///< blocking and nonblocking, in posting order
  };
  static_assert(std::is_trivially_copyable_v<PostedRecv>, "the blocking path copies entries");

  /// The one send path of send and isend: traffic counters, wire time
  /// (with faults), rendezvous handshake, FIFO ordering, the send/isend
  /// and wire spans, and the delivery event. Returns how long the
  /// sender is busy: o + handshake, plus the gap g when `blocking`.
  double post_send(Comm& from, int dst, int tag, std::size_t bytes,
                   std::vector<double>&& payload, bool blocking);
  /// Matches a receive against rank's unexpected queue: a hit moves the
  /// message into *posted.out, emits the recv/irecv span and returns
  /// true; a miss appends the receive to the rank's posted queue.
  bool post_receive(int rank, const PostedRecv& posted);
  /// Marks `state` complete and resumes its waiter after `delay`.
  void complete_request(std::shared_ptr<Request::State> state, double delay);
  /// Empties every posted queue, releasing the irecvs' self-ownership.
  void drop_posted() noexcept;

  void deliver(Message&& msg);  // runs at arrival time
  /// Publishes traffic deltas since the last flush to obs::counters().
  void flush_counters();
  /// Payload wire time for one (src, dst) transfer with fault injection
  /// applied: link degradation multiplies the drawn wire time, and each
  /// dropped attempt (sender's stream, so deterministic) adds the
  /// retransmit timeout plus a re-drawn transfer. Identical to
  /// transfer_time_on_route when the machine has no FaultSpec -- the
  /// fault branches draw nothing.
  [[nodiscard]] double faulty_transfer(double base, std::size_t bytes, int src_rank,
                                       int dst_rank, rng::Xoshiro256& gen);
  /// Precomputed L + hop_latency * hops for the (src_rank, dst_rank)
  /// pair: the p2p hot path pays one array load instead of a topology
  /// hop query per message.
  [[nodiscard]] double route_base(int src_rank, int dst_rank) const noexcept {
    return route_base_[static_cast<std::size_t>(src_rank) * comms_.size() +
                       static_cast<std::size_t>(dst_rank)];
  }
  [[nodiscard]] static bool matches(int want_src, int want_tag, const Message& m) noexcept {
    return (want_src == kAnySource || want_src == m.src) &&
           (want_tag == kAnyTag || want_tag == m.tag);
  }

  sim::Machine machine_;
  sim::Network network_;
  sim::AllocationPolicy policy_;
  sim::Engine engine_;
  std::vector<std::size_t> nodes_;  // rank -> node id
  std::vector<std::size_t> allocation_;     // reset(): allocate_nodes_into target
  std::vector<std::size_t> alloc_scratch_;  // reset(): shuffle permutation buffer
  std::vector<double> route_base_;  // (src_rank * ranks + dst_rank) -> L + hop cost
  sim::NoiseTally noise_tally_;     // batched noise counters, published in flush_counters()
  // Fault-injection state, drawn per reset from the world seed and
  // empty when machine_.faults.any() is false (zero hot-path cost and
  // zero extra RNG draws for benign machines).
  std::vector<double> route_degrade_;     // (src_rank * ranks + dst_rank) -> wire multiplier
  std::vector<double> straggler_factor_;  // rank -> compute multiplier (node-level draw)
  fault::FaultTally fault_tally_;         // batched fault counters, published in flush_counters()
  std::vector<std::unique_ptr<Comm>> comms_;
  std::vector<Mailbox> mailboxes_;
  std::vector<std::vector<double>> fifo_clock_;  // last arrival per (src, dst)
  std::deque<sim::Task<void>> programs_;  // deque: stable addresses for the start lambdas
  std::uint64_t delivered_ = 0;
  std::uint64_t next_msg_seq_ = 0;
  std::uint64_t counted_msgs_ = 0;   // flushed-to-registry watermarks
  std::uint64_t counted_bytes_ = 0;
};

struct Comm::SendAwaitable {
  Comm* comm;
  int dst;
  int tag;
  std::size_t bytes;
  std::vector<double> payload;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

struct Comm::RecvAwaitable {
  Comm* comm;
  int src;
  int tag;
  Message result;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  [[nodiscard]] Message await_resume() noexcept { return std::move(result); }
};

struct Comm::ComputeAwaitable {
  Comm* comm;
  double pure_seconds;

  [[nodiscard]] bool await_ready() const noexcept { return pure_seconds <= 0.0; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

struct Request::WaitAwaitable {
  std::shared_ptr<State> state;

  [[nodiscard]] bool await_ready() const noexcept { return !state || state->complete; }
  void await_suspend(std::coroutine_handle<> h) noexcept { state->waiter = h; }
  [[nodiscard]] Message await_resume() noexcept {
    return state ? std::move(state->msg) : Message{};
  }
};

/// Awaits every request in order (the simulated MPI_Waitall).
[[nodiscard]] sim::Task<void> wait_all(std::span<Request> requests);

struct Comm::WaitLocalAwaitable {
  Comm* comm;
  double local_time;

  [[nodiscard]] bool await_ready() const noexcept;
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

}  // namespace sci::simmpi
