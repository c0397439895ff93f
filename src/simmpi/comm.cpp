#include "simmpi/comm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace sci::simmpi {

int Comm::size() const noexcept { return world_->size(); }

double Comm::wtime() const noexcept { return clock_.to_local(world_->engine_.now()); }

Comm::SendAwaitable Comm::send(int dst, int tag, std::size_t bytes,
                               std::vector<double> payload) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("Comm::send: bad destination");
  return SendAwaitable{this, dst, tag, bytes, std::move(payload)};
}

Comm::RecvAwaitable Comm::recv(int src, int tag) {
  if (src != kAnySource && (src < 0 || src >= size()))
    throw std::out_of_range("Comm::recv: bad source");
  return RecvAwaitable{this, src, tag, {}};
}

Comm::ComputeAwaitable Comm::compute(double pure_seconds) {
  if (pure_seconds < 0.0) throw std::domain_error("Comm::compute: negative duration");
  return ComputeAwaitable{this, pure_seconds};
}

Comm::WaitLocalAwaitable Comm::wait_until_local(double local_time) {
  return WaitLocalAwaitable{this, local_time};
}

Request::WaitAwaitable Request::wait() { return WaitAwaitable{state_}; }

sim::Task<void> wait_all(std::span<Request> requests) {
  for (auto& r : requests) (void)co_await r.wait();
}

// The send and receive cores are inlined into each of their callers, all
// in this file: a call per message costs pingpong cells a few percent.
[[gnu::always_inline]] inline double World::post_send(Comm& from, int dst, int tag,
                                                      std::size_t bytes,
                                                      std::vector<double>&& payload,
                                                      bool blocking) {
  ++from.stats_.sends;
  from.stats_.bytes_sent += bytes;
  const int src = from.rank_;
  const double o = machine_.loggp.overhead_s;

  // Wire time including this network's noise and any injected faults
  // (degraded routes, dropped attempts); drawn from the *sender's*
  // stream so runs stay deterministic. The route base is precomputed per
  // rank pair and the tallies are batched: nothing on this path touches
  // the topology or the counter registry.
  const double base = route_base(src, dst);
  const double wire = faulty_transfer(base, bytes, src, dst, from.gen_);

  // Rendezvous: payloads above the eager limit pay a ready-to-send
  // handshake (one small-message round trip) before the data moves, and
  // the sender stays busy through the handshake.
  double handshake = 0.0;
  if (bytes > machine_.loggp.eager_threshold_bytes) {
    handshake = 2.0 * (o + network_.transfer_time_on_route(base, 8, from.gen_, noise_tally_));
  }

  const std::uint64_t seq = next_msg_seq_++;

  // FIFO non-overtaking per (src, dst): a message may not arrive before
  // one sent earlier on the same channel.
  const double t0 = engine_.now();
  double arrival = t0 + o + handshake + wire;
  double& last = fifo_clock_[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
  arrival = std::max(arrival, last);
  last = arrival;

  // A blocking sender also pays the inter-message gap; a nonblocking one
  // only holds its buffer through the overhead and the handshake.
  const double busy = o + (blocking ? machine_.loggp.gap_per_msg_s : 0.0) + handshake;
  if (obs::TraceSink* s = obs::sink()) {
    const double wire_start = t0 + o + handshake;
    const double ideal = network_.ideal_transfer_on_route(base, bytes);
    s->complete(src, blocking ? "send" : "isend", "p2p", t0, busy,
                {{"dst", dst}, {"tag", tag}, {"bytes", bytes}, {"mseq", seq}});
    s->complete(obs::kWireTrackBase + src, "wire", "net.wire", wire_start, arrival - wire_start,
                {{"src", src},
                 {"dst", dst},
                 {"bytes", bytes},
                 {"mseq", seq},
                 {"noise_s", wire - ideal}});
  }
  // The message is built in the event's capture and handed to deliver()
  // by reference: the event runs in place in its arena slot.
  engine_.schedule_at(arrival,
                      [this, m = Message{src, dst, tag, bytes, seq, std::move(payload)}]() mutable {
                        deliver(std::move(m));
                      });
  return busy;
}

[[gnu::always_inline]] inline bool World::post_receive(int rank, const PostedRecv& posted) {
  Mailbox& box = mailboxes_[static_cast<std::size_t>(rank)];
  const auto it = std::find_if(box.unexpected.begin(), box.unexpected.end(), [&](const Message& m) {
    return matches(posted.src, posted.tag, m);
  });
  if (it == box.unexpected.end()) {
    box.posted.push_back(posted);
    return false;
  }
  Message& msg = *posted.out;
  msg = std::move(*it);
  box.unexpected.erase(it);
  SCI_TRACE_COMPLETE(rank, posted.span_name(), "p2p", engine_.now(), machine_.loggp.overhead_s,
                     {{"src", msg.src},
                      {"tag", msg.tag},
                      {"bytes", msg.bytes},
                      {"mseq", msg.seq},
                      {"wait_s", 0.0}});
  return true;
}

void World::complete_request(std::shared_ptr<Request::State> state, double delay) {
  engine_.schedule_after(delay, [state = std::move(state)] {
    state->complete = true;
    if (state->waiter) std::exchange(state->waiter, nullptr).resume();
  });
}

void World::drop_posted() noexcept {
  for (Mailbox& box : mailboxes_) {
    for (const PostedRecv& p : box.posted) {
      if (p.request) p.request->keep_alive.reset();
    }
    box.posted.clear();
  }
}

Request Comm::isend(int dst, int tag, std::size_t bytes, std::vector<double> payload) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("Comm::isend: bad destination");
  World& w = *world_;
  const double busy = w.post_send(*this, dst, tag, bytes, std::move(payload), false);
  Request req;
  req.state_ = std::make_shared<Request::State>();
  w.complete_request(req.state_, busy);
  return req;
}

Request Comm::irecv(int src, int tag) {
  if (src != kAnySource && (src < 0 || src >= size()))
    throw std::out_of_range("Comm::irecv: bad source");
  World& w = *world_;
  Request req;
  req.state_ = std::make_shared<Request::State>();
  Request::State* state = req.state_.get();
  if (w.post_receive(rank_, {src, tag, &state->msg, {}, state, w.engine_.now()})) {
    w.complete_request(req.state_, w.machine_.loggp.overhead_s);
  } else {
    state->keep_alive = req.state_;
  }
  return req;
}

double World::faulty_transfer(double base, std::size_t bytes, int src_rank, int dst_rank,
                              rng::Xoshiro256& gen) {
  // Benign machines take the first return: route_degrade_ is empty and
  // drop_prob is 0, so this is exactly transfer_time_on_route (same RNG
  // draw sequence -- the determinism pins of test_exec_reuse hold).
  double degrade = 1.0;
  if (!route_degrade_.empty()) {
    degrade = route_degrade_[static_cast<std::size_t>(src_rank) * comms_.size() +
                             static_cast<std::size_t>(dst_rank)];
  }
  double wire = network_.transfer_time_on_route(base, bytes, gen, noise_tally_) * degrade;
  if (degrade > 1.0) ++fault_tally_.degraded_transfers;
  const fault::FaultSpec& f = machine_.faults;
  if (f.drop_prob > 0.0) {
    // Reliable-transport model: each attempt is lost with drop_prob;
    // a loss costs the retransmit timeout before the (re-drawn) resend
    // starts, and delivery is guaranteed after max_retransmits losses,
    // so injected drops can never deadlock a rank program.
    std::size_t losses = 0;
    double penalty = 0.0;
    while (losses < f.max_retransmits && rng::bernoulli(gen, f.drop_prob)) {
      ++losses;
      SCI_TRACE_INSTANT(obs::kWireTrackBase + src_rank, "drop", "fault", engine_.now(),
                        {{"dst", dst_rank}, {"bytes", bytes}, {"attempt", losses}});
      const double resend =
          network_.transfer_time_on_route(base, bytes, gen, noise_tally_) * degrade;
      penalty += f.retransmit_timeout_s + resend;
    }
    if (losses > 0) {
      wire += penalty;
      fault_tally_.drops += losses;
      fault_tally_.retransmit_ns += static_cast<std::uint64_t>(penalty * 1e9);
    }
  }
  return wire;
}

void Comm::SendAwaitable::await_suspend(std::coroutine_handle<> h) {
  World& w = *comm->world_;
  const double busy = w.post_send(*comm, dst, tag, bytes, std::move(payload), true);
  w.engine_.schedule_after(busy, [h] { h.resume(); });
}

void Comm::RecvAwaitable::await_suspend(std::coroutine_handle<> h) {
  World& w = *comm->world_;
  if (w.post_receive(comm->rank_, {src, tag, &result, h, nullptr, w.engine_.now()})) {
    w.engine_.schedule_after(w.machine_.loggp.overhead_s, [h] { h.resume(); });
  }
}

void Comm::ComputeAwaitable::await_suspend(std::coroutine_handle<> h) {
  World& w = *comm->world_;
  double duration =
      w.machine_.compute_noise.perturb(pure_seconds, comm->gen_, w.noise_tally_);
  if (!w.straggler_factor_.empty()) {
    // Straggler episode: this rank's node runs slow for the whole reset
    // epoch (factor drawn from the world seed in reset()).
    const double factor = w.straggler_factor_[static_cast<std::size_t>(comm->rank_)];
    if (factor > 1.0) {
      w.fault_tally_.straggler_ns +=
          static_cast<std::uint64_t>(duration * (factor - 1.0) * 1e9);
      duration *= factor;
    }
  }
  comm->busy_s_ += duration;
  SCI_TRACE_COMPLETE(comm->rank_, "compute", "compute", w.engine_.now(), duration,
                     {{"pure_s", pure_seconds}, {"noise_s", duration - pure_seconds}});
  w.engine_.schedule_after(duration, [h] { h.resume(); });
}

bool Comm::WaitLocalAwaitable::await_ready() const noexcept {
  return comm->clock_.to_global(local_time) <= comm->world_->engine_.now();
}

void Comm::WaitLocalAwaitable::await_suspend(std::coroutine_handle<> h) {
  comm->world_->engine_.schedule_at(comm->clock_.to_global(local_time), [h] { h.resume(); });
}

World::World(sim::Machine machine, int ranks, std::uint64_t seed,
             sim::AllocationPolicy policy)
    : machine_(std::move(machine)), network_(machine_.make_network()), policy_(policy) {
  if (ranks < 1) throw std::invalid_argument("World: ranks >= 1");
  const auto want = static_cast<std::size_t>(ranks);
  nodes_.resize(want);
  route_base_.resize(want * want);
  mailboxes_.resize(want);
  fifo_clock_.assign(want, std::vector<double>(want, 0.0));
  comms_.reserve(want);
  for (int r = 0; r < ranks; ++r) {
    auto comm = std::make_unique<Comm>();
    comm->world_ = this;
    comm->rank_ = r;
    comms_.push_back(std::move(comm));
  }
  reset(seed);
}

void World::reset(std::uint64_t seed) {
  // Publish any traffic still unflushed (reset mid-run or after step())
  // before the per-rank stats are zeroed below.
  flush_counters();
  engine_.reset();

  rng::Xoshiro256 seeder(seed);
  // Batch system: pick the node allocation (one node per rank if the
  // machine is large enough; otherwise round-robin over the allocation).
  // The seeder draw order below must match the original construction
  // path exactly -- allocation first, then per-rank clock offset,
  // drift, and stream split -- or reset breaks seed-for-seed identity.
  const std::size_t node_count = machine_.topology->node_count();
  const std::size_t want = comms_.size();
  const std::size_t alloc_size = std::min(want, node_count);
  sim::allocate_nodes_into(*machine_.topology, alloc_size, policy_, seeder, allocation_,
                           alloc_scratch_);
  for (std::size_t r = 0; r < want; ++r) nodes_[r] = allocation_[r % allocation_.size()];

  // Precompute the byte-independent route cost per rank pair once; the
  // p2p path then never queries the topology again.
  for (std::size_t s = 0; s < want; ++s) {
    for (std::size_t d = 0; d < want; ++d) {
      route_base_[s * want + d] = network_.route_base(nodes_[s], nodes_[d]);
    }
  }

  for (std::size_t r = 0; r < want; ++r) {
    Comm& comm = *comms_[r];
    comm.node_ = nodes_[r];
    const double offset = rng::normal(seeder, 0.0, machine_.clock_offset_sigma_s);
    const double drift = rng::normal(seeder, 0.0, machine_.clock_drift_ppm_sigma);
    comm.clock_ = LocalClock(offset, drift);
    comm.gen_ = seeder.split();
    comm.stats_ = CommStats{};
    comm.busy_s_ = 0.0;
  }

  // Fault-injection draws come LAST in the seeder order: benign
  // machines draw nothing here (the pre-fault byte streams are pinned by
  // test_exec_reuse), and a faulty machine's extra draws cannot perturb
  // the allocation/clock/stream draws above. Per-route degradation and
  // per-node straggler episodes are fixed for the whole reset epoch;
  // reset(seed) replays them exactly.
  if (machine_.faults.any()) {
    const fault::FaultSpec& f = machine_.faults;
    route_degrade_.assign(want * want, 1.0);
    if (f.link_degrade_prob > 0.0) {
      for (std::size_t s = 0; s < want; ++s) {
        for (std::size_t d = 0; d < want; ++d) {
          if (s != d && rng::bernoulli(seeder, f.link_degrade_prob)) {
            route_degrade_[s * want + d] = f.link_degrade_factor;
          }
        }
      }
    }
    straggler_factor_.assign(want, 1.0);
    if (f.straggler_prob > 0.0) {
      // One draw per allocation slot (i.e. per node in the allocation),
      // so ranks packed onto the same node straggle together.
      std::vector<double> node_factor(allocation_.size(), 1.0);
      for (double& factor : node_factor) {
        if (rng::bernoulli(seeder, f.straggler_prob)) factor = f.straggler_factor;
      }
      for (std::size_t r = 0; r < want; ++r) {
        straggler_factor_[r] = node_factor[r % allocation_.size()];
      }
    }
  } else {
    route_degrade_.clear();
    straggler_factor_.clear();
  }

  drop_posted();
  for (Mailbox& box : mailboxes_) box.unexpected.clear();
  for (auto& row : fifo_clock_) std::fill(row.begin(), row.end(), 0.0);
  programs_.clear();
  delivered_ = 0;
  next_msg_seq_ = 0;
  counted_msgs_ = 0;
  counted_bytes_ = 0;
}

double World::energy_joules() const noexcept {
  const auto& power = machine_.power;
  // Distinct nodes in the allocation (round-robin may reuse nodes).
  std::vector<std::size_t> distinct = nodes_;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());

  double joules =
      power.idle_w * engine_.now() * static_cast<double>(distinct.size());
  for (const auto& comm : comms_) {
    joules += power.compute_w * comm->busy_seconds();
    joules += power.net_j_per_msg * static_cast<double>(comm->stats().sends);
    joules += power.net_j_per_byte * static_cast<double>(comm->stats().bytes_sent);
  }
  return joules;
}

void World::flush_counters() {
  // Watermark-based bulk publish: traffic totals are already exact in
  // CommStats; the registry only needs the delta since the last flush,
  // once per run rather than once per message.
  static obs::Counter& msgs = obs::counter(obs::keys::kNetMessages);
  static obs::Counter& bytes = obs::counter(obs::keys::kNetBytes);
  std::uint64_t total_bytes = 0;
  for (const auto& c : comms_) total_bytes += c->stats_.bytes_sent;
  if (delivered_ > counted_msgs_) msgs.add(delivered_ - counted_msgs_);
  if (total_bytes > counted_bytes_) bytes.add(total_bytes - counted_bytes_);
  counted_msgs_ = delivered_;
  counted_bytes_ = total_bytes;
  // Noise draw/injection tallies batch in the world for the same reason
  // (totals identical to per-draw publishing; see sim::NoiseTally).
  noise_tally_.flush();
  fault_tally_.flush();
}

void World::name_trace_tracks(obs::TraceSink& sink) const {
  sink.set_process_name("scibench sim: " + machine_.name);
  sink.set_track_name(obs::kHarnessTrack, "harness (host)");
  sink.set_track_name(obs::kEngineTrack, "engine");
  for (int r = 0; r < size(); ++r) {
    sink.set_track_name(r, "rank " + std::to_string(r));
    sink.set_track_name(obs::kWireTrackBase + r, "wire " + std::to_string(r));
  }
}

std::size_t World::step() {
  const std::size_t processed = engine_.run();
  flush_counters();
  return processed;
}

std::size_t World::run() {
  const std::size_t processed = engine_.run();
  flush_counters();
  for (const auto& box : mailboxes_) {
    if (std::any_of(box.posted.begin(), box.posted.end(),
                    [](const PostedRecv& p) { return p.request == nullptr; })) {
      throw std::runtime_error(
          "World::run: deadlock -- a rank is blocked in recv with no matching "
          "message in flight");
    }
  }
  for (const auto& t : programs_) {
    if (!t.done()) {
      throw std::runtime_error("World::run: a rank program did not finish");
    }
  }
  programs_.clear();
  return processed;
}

void World::deliver(Message&& msg) {
  ++delivered_;
  auto& receiver = *comms_[static_cast<std::size_t>(msg.dst)];
  ++receiver.stats_.receives;
  receiver.stats_.bytes_received += msg.bytes;
  auto& box = mailboxes_[static_cast<std::size_t>(msg.dst)];
  const auto it = std::find_if(box.posted.begin(), box.posted.end(),
                               [&](const PostedRecv& p) { return matches(p.src, p.tag, msg); });
  if (it == box.posted.end()) {
    box.unexpected.push_back(std::move(msg));
    return;
  }
  const PostedRecv posted = *it;
  box.posted.erase(it);
  const double o = machine_.loggp.overhead_s;
  // The receive span covers the full wait: from when the receive was
  // posted to when the receive-side overhead finishes. `wait_s` is the
  // late-sender time the trace CLI attributes back to sources.
  SCI_TRACE_COMPLETE(msg.dst, posted.span_name(), "p2p", posted.posted_at,
                     engine_.now() + o - posted.posted_at,
                     {{"src", msg.src},
                      {"tag", msg.tag},
                      {"bytes", msg.bytes},
                      {"mseq", msg.seq},
                      {"wait_s", engine_.now() - posted.posted_at}});
  *posted.out = std::move(msg);
  if (posted.request) {
    complete_request(std::move(posted.request->keep_alive), o);
  } else {
    engine_.schedule_after(o, [h = posted.waiter] { h.resume(); });
  }
}

}  // namespace sci::simmpi
