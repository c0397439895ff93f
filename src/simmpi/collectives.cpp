#include "simmpi/collectives.hpp"

#include <algorithm>
#include <stdexcept>
#include <cmath>
#include <limits>

#include "sim/trace_hooks.hpp"

namespace sci::simmpi {
namespace {

/// Largest power of two <= p.
int pow2_floor(int p) noexcept {
  int r = 1;
  while (2 * r <= p) r *= 2;
  return r;
}

constexpr std::size_t kCtrlBytes = 8;  // one double on the wire

void combine_inplace(ReduceOp op, std::vector<double>& acc,
                     const std::vector<double>& other, std::size_t offset = 0) {
  for (std::size_t i = 0; i < other.size(); ++i) {
    acc.at(offset + i) = apply(op, acc.at(offset + i), other[i]);
  }
}

/// Recursive doubling over the largest power-of-two set, with the
/// excess ranks folded in first and sent the result last; tags count
/// from `tag_base`. The scalar allreduce is this kernel on one element.
sim::Task<std::vector<double>> allreduce_v_rd(Comm& comm, std::vector<double> values,
                                              ReduceOp op, int tag_base) {
  const int p = comm.size();
  const int r = comm.rank();
  const int p2 = pow2_floor(p);
  const std::size_t bytes = 8 * values.size();

  if (r >= p2) {
    co_await comm.send(r - p2, tag_base, bytes, std::move(values));
    Message m = co_await comm.recv(r - p2, tag_base + 1);
    co_return std::move(m.payload);
  }
  if (r + p2 < p) {
    Message m = co_await comm.recv(r + p2, tag_base);
    combine_inplace(op, values, m.payload);
  }
  for (int mask = 1; mask < p2; mask *= 2) {
    const int partner = r ^ mask;
    co_await comm.send(partner, tag_base + 2 + mask, bytes,
                       std::vector<double>(values));
    Message m = co_await comm.recv(partner, tag_base + 2 + mask);
    combine_inplace(op, values, m.payload);
  }
  if (r + p2 < p) {
    co_await comm.send(r + p2, tag_base + 1, bytes, std::vector<double>(values));
  }
  co_return values;
}

}  // namespace

double apply(ReduceOp op, double a, double b) noexcept {
  switch (op) {
    case ReduceOp::kSum: return a + b;
    case ReduceOp::kMin: return std::min(a, b);
    case ReduceOp::kMax: return std::max(a, b);
  }
  return a;
}

sim::Task<void> barrier(Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  SCI_SIM_SPAN(span, comm.world().engine(), r, "barrier", "coll", {{"p", p}});
  // Software entry cost of the collective call itself.
  co_await comm.compute(comm.world().machine().coll_entry_overhead_s);
  for (int k = 1, round = 0; k < p; k *= 2, ++round) {
    const int to = (r + k) % p;
    const int from = (r - k % p + p) % p;
    co_await comm.send(to, kTagBarrier + round, kCtrlBytes);
    (void)co_await comm.recv(from, kTagBarrier + round);
  }
}

sim::Task<double> reduce(Comm& comm, double value, int root, ReduceOp op) {
  const int p = comm.size();
  // Non-power-of-two communicators take the slow code path: the fold
  // phase below plus extra setup (tree computation, displacement math).
  // This models the well-known effect the paper's Figure 5 demonstrates
  // ("several implementations perform better with 2^k processes").
  const bool is_pow2 = (p & (p - 1)) == 0;
  SCI_SIM_SPAN(span, comm.world().engine(), comm.rank(), "reduce", "coll",
               {{"p", p}, {"root", root}, {"pow2", is_pow2 ? 1 : 0}});
  const double entry = comm.world().machine().coll_entry_overhead_s;
  co_await comm.compute(is_pow2 ? entry : 2.0 * entry);
  if (p == 1) co_return value;

  // Rotate so the algorithm always reduces to virtual rank 0.
  const int vrank = (comm.rank() - root + p) % p;
  auto real = [&](int vr) { return (vr + root) % p; };

  double acc = value;
  const int p2 = pow2_floor(p);

  // Fold phase: ranks beyond the largest power of two send their value
  // in (the extra step that penalizes non-power-of-two counts).
  if (vrank >= p2) {
    co_await comm.send(real(vrank - p2), kTagReduce, kCtrlBytes, std::vector<double>(1, acc));
    co_return acc;  // non-participating rank: partial value only
  }
  if (vrank + p2 < p) {
    Message m = co_await comm.recv(real(vrank + p2), kTagReduce);
    acc = apply(op, acc, m.payload.at(0));
  }

  // Binomial tree over the power-of-two set.
  for (int mask = 1; mask < p2; mask *= 2) {
    if (vrank & mask) {
      co_await comm.send(real(vrank - mask), kTagReduce + mask, kCtrlBytes, std::vector<double>(1, acc));
      co_return acc;
    }
    Message m = co_await comm.recv(real(vrank + mask), kTagReduce + mask);
    acc = apply(op, acc, m.payload.at(0));
  }
  co_return acc;
}

sim::Task<double> bcast(Comm& comm, double value, int root) {
  const int p = comm.size();
  SCI_SIM_SPAN(span, comm.world().engine(), comm.rank(), "bcast", "coll",
               {{"p", p}, {"root", root}});
  co_await comm.compute(comm.world().machine().coll_entry_overhead_s);
  if (p == 1) co_return value;

  const int vrank = (comm.rank() - root + p) % p;
  auto real = [&](int vr) { return (vr + root) % p; };

  // Find this rank's position: receive from parent, then forward to
  // children in decreasing mask order (standard binomial broadcast).
  int mask = 1;
  while (mask < p) mask *= 2;

  double v = value;
  if (vrank != 0) {
    // Parent: clear the lowest set bit.
    const int parent = vrank & (vrank - 1);
    // Round tag = position of the differing bit, for ordered matching.
    const int bit = vrank ^ parent;
    Message m = co_await comm.recv(real(parent), kTagBcast + bit);
    v = m.payload.at(0);
  }
  // Children: vrank + bit for bits above the lowest set bit of vrank.
  const int low = (vrank == 0) ? mask : (vrank & -vrank);
  for (int bit = low / 2; bit >= 1; bit /= 2) {
    if (vrank + bit < p) {
      co_await comm.send(real(vrank + bit), kTagBcast + bit, kCtrlBytes, std::vector<double>(1, v));
    }
  }
  co_return v;
}

sim::Task<double> allreduce(Comm& comm, double value, ReduceOp op) {
  const int p = comm.size();
  SCI_SIM_SPAN(span, comm.world().engine(), comm.rank(), "allreduce", "coll", {{"p", p}});
  co_await comm.compute(comm.world().machine().coll_entry_overhead_s);
  if (p == 1) co_return value;
  const std::vector<double> out =
      co_await allreduce_v_rd(comm, std::vector<double>(1, value), op, kTagAllreduce);
  co_return out[0];
}

sim::Task<std::vector<double>> gather(Comm& comm, double value, int root) {
  const int p = comm.size();
  SCI_SIM_SPAN(span, comm.world().engine(), comm.rank(), "gather", "coll",
               {{"p", p}, {"root", root}});
  co_await comm.compute(comm.world().machine().coll_entry_overhead_s);
  if (p == 1) co_return std::vector<double>(1, value);

  const int vrank = (comm.rank() - root + p) % p;
  auto real = [&](int vr) { return (vr + root) % p; };

  // Binomial gather: after round `mask` a surviving node holds the
  // virtual block [vrank, vrank + 2*mask) clipped to p.
  std::vector<double> block(1, value);
  for (int mask = 1; mask < p; mask *= 2) {
    if (vrank & mask) {
      const std::size_t block_bytes = 8 * block.size();
      co_await comm.send(real(vrank - mask), kTagGather + mask, block_bytes,
                         std::move(block));
      co_return std::vector<double>{};
    }
    if (vrank + mask < p) {
      Message m = co_await comm.recv(real(vrank + mask), kTagGather + mask);
      block.insert(block.end(), m.payload.begin(), m.payload.end());
    }
  }
  // Root: translate the virtual ordering back to real ranks.
  std::vector<double> out(static_cast<std::size_t>(p));
  for (int v = 0; v < p; ++v) out[static_cast<std::size_t>(real(v))] = block[v];
  co_return out;
}

sim::Task<double> scatter(Comm& comm, std::vector<double> values, int root) {
  const int p = comm.size();
  SCI_SIM_SPAN(span, comm.world().engine(), comm.rank(), "scatter", "coll",
               {{"p", p}, {"root", root}});
  co_await comm.compute(comm.world().machine().coll_entry_overhead_s);
  if (p == 1) co_return values.at(0);
  if (comm.rank() == root && static_cast<int>(values.size()) != p)
    throw std::invalid_argument("scatter: values.size() must equal comm.size()");

  const int vrank = (comm.rank() - root + p) % p;
  auto real = [&](int vr) { return (vr + root) % p; };

  int top = 1;
  while (top < p) top *= 2;

  // Node v owns virtual block [v, v + low) where low = lowest set bit of
  // v (or `top` for the root); receive it from the parent, then forward
  // the upper halves down the binomial tree.
  const int low = (vrank == 0) ? top : (vrank & -vrank);
  std::vector<double> block;
  if (vrank == 0) {
    // Rotate into virtual order.
    block.resize(static_cast<std::size_t>(p));
    for (int v = 0; v < p; ++v) block[v] = values[static_cast<std::size_t>(real(v))];
  } else {
    const int parent = vrank & (vrank - 1);
    Message m = co_await comm.recv(real(parent), kTagScatter + low);
    block = std::move(m.payload);
  }
  // block covers [vrank, min(vrank + low, p)).
  int have = std::min(low, p - vrank);
  for (int bit = low / 2; bit >= 1; bit /= 2) {
    if (vrank + bit < p) {
      const int child_len = std::min(bit, p - (vrank + bit));
      std::vector<double> sub(block.begin() + bit, block.begin() + bit + child_len);
      const std::size_t sub_bytes = 8 * sub.size();
      co_await comm.send(real(vrank + bit), kTagScatter + bit, sub_bytes,
                         std::move(sub));
      block.resize(bit);
      have = bit;
    }
  }
  (void)have;
  co_return block.at(0);
}

sim::Task<std::vector<double>> allgather(Comm& comm, double value) {
  const int p = comm.size();
  SCI_SIM_SPAN(span, comm.world().engine(), comm.rank(), "allgather", "coll", {{"p", p}});
  co_await comm.compute(comm.world().machine().coll_entry_overhead_s);
  std::vector<double> out(static_cast<std::size_t>(p), 0.0);
  const int r = comm.rank();
  out[static_cast<std::size_t>(r)] = value;
  if (p == 1) co_return out;

  // Ring: in step s, pass along the block that originated s hops back.
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const int send_idx = (r - s + p) % p;
    const int recv_idx = (r - s - 1 + p) % p;
    co_await comm.send(right, kTagAllgather, kCtrlBytes,
                       std::vector<double>(1, out[static_cast<std::size_t>(send_idx)]));
    Message m = co_await comm.recv(left, kTagAllgather);
    out[static_cast<std::size_t>(recv_idx)] = m.payload.at(0);
  }
  co_return out;
}

sim::Task<std::vector<double>> alltoall(Comm& comm, std::vector<double> to_each) {
  const int p = comm.size();
  SCI_SIM_SPAN(span, comm.world().engine(), comm.rank(), "alltoall", "coll", {{"p", p}});
  co_await comm.compute(comm.world().machine().coll_entry_overhead_s);
  if (static_cast<int>(to_each.size()) != p)
    throw std::invalid_argument("alltoall: to_each.size() must equal comm.size()");
  const int r = comm.rank();
  std::vector<double> out(static_cast<std::size_t>(p), 0.0);
  out[static_cast<std::size_t>(r)] = to_each[static_cast<std::size_t>(r)];

  // Pairwise exchange: in round i talk to (r + i) and hear from (r - i).
  for (int i = 1; i < p; ++i) {
    const int dst = (r + i) % p;
    const int src = (r - i + p) % p;
    co_await comm.send(dst, kTagAlltoall + i, kCtrlBytes,
                       std::vector<double>(1, to_each[static_cast<std::size_t>(dst)]));
    Message m = co_await comm.recv(src, kTagAlltoall + i);
    out[static_cast<std::size_t>(src)] = m.payload.at(0);
  }
  co_return out;
}

sim::Task<double> scan(Comm& comm, double value, ReduceOp op) {
  const int p = comm.size();
  SCI_SIM_SPAN(span, comm.world().engine(), comm.rank(), "scan", "coll", {{"p", p}});
  co_await comm.compute(comm.world().machine().coll_entry_overhead_s);
  const int r = comm.rank();
  double prefix = value;  // op over [r - (2^round - 1), r]
  for (int d = 1; d < p; d *= 2) {
    if (r + d < p) {
      co_await comm.send(r + d, kTagScan + d, kCtrlBytes,
                         std::vector<double>(1, prefix));
    }
    if (r - d >= 0) {
      Message m = co_await comm.recv(r - d, kTagScan + d);
      prefix = apply(op, m.payload.at(0), prefix);
    }
  }
  co_return prefix;
}


namespace {

constexpr int kTagAllreduceV = 2'000'000;

sim::Task<std::vector<double>> allreduce_v_ring(Comm& comm, std::vector<double> values,
                                                ReduceOp op) {
  // Ring reduce-scatter + ring allgather over p chunks (any p >= 2).
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t n = values.size();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  auto chunk_begin = [&](int c) {
    return n * static_cast<std::size_t>((c % p + p) % p) / static_cast<std::size_t>(p);
  };
  auto chunk = [&](int c) {
    const std::size_t lo = chunk_begin(c);
    const std::size_t hi = chunk_begin(c + 1) == 0 ? n : chunk_begin(c + 1);
    return std::pair<std::size_t, std::size_t>{lo, (c % p == p - 1) ? n : hi};
  };

  // Reduce-scatter: after step s, this rank holds the partial reduction
  // of chunk (r - s) over ranks r-s..r.
  for (int s = 0; s < p - 1; ++s) {
    const auto [slo, shi] = chunk(r - s);
    std::vector<double> out(values.begin() + static_cast<std::ptrdiff_t>(slo),
                            values.begin() + static_cast<std::ptrdiff_t>(shi));
    const std::size_t out_bytes = 8 * out.size();
    co_await comm.send(right, kTagAllreduceV + 100 + s, out_bytes, std::move(out));
    Message m = co_await comm.recv(left, kTagAllreduceV + 100 + s);
    const auto [rlo, rhi] = chunk(r - s - 1);
    (void)rhi;
    combine_inplace(op, values, m.payload, rlo);
  }
  // Allgather: circulate the fully reduced chunks.
  for (int s = 0; s < p - 1; ++s) {
    const auto [slo, shi] = chunk(r + 1 - s);
    std::vector<double> out(values.begin() + static_cast<std::ptrdiff_t>(slo),
                            values.begin() + static_cast<std::ptrdiff_t>(shi));
    const std::size_t out_bytes = 8 * out.size();
    co_await comm.send(right, kTagAllreduceV + 500 + s, out_bytes, std::move(out));
    Message m = co_await comm.recv(left, kTagAllreduceV + 500 + s);
    const auto [rlo, rhi] = chunk(r - s);
    (void)rhi;
    for (std::size_t i = 0; i < m.payload.size(); ++i) values.at(rlo + i) = m.payload[i];
  }
  co_return values;
}

}  // namespace

sim::Task<std::vector<double>> allreduce_v(Comm& comm, std::vector<double> values,
                                           ReduceOp op, AllreduceAlgo algo,
                                           std::size_t auto_threshold_bytes) {
  const int p = comm.size();
  SCI_SIM_SPAN(span, comm.world().engine(), comm.rank(), "allreduce_v", "coll",
               {{"p", p}, {"n", values.size()}});
  co_await comm.compute(comm.world().machine().coll_entry_overhead_s);
  if (values.empty()) throw std::invalid_argument("allreduce_v: empty vector");
  if (p == 1) co_return values;

  if (algo == AllreduceAlgo::kAuto) {
    algo = (8 * values.size() <= auto_threshold_bytes) ? AllreduceAlgo::kRecursiveDoubling
                                                       : AllreduceAlgo::kRing;
  }
  // The ring needs at least one element per chunk boundary to make
  // progress; tiny vectors on many ranks fall back to doubling.
  if (algo == AllreduceAlgo::kRing && values.size() < static_cast<std::size_t>(p)) {
    algo = AllreduceAlgo::kRecursiveDoubling;
  }
  if (algo == AllreduceAlgo::kRing) {
    co_return co_await allreduce_v_ring(comm, std::move(values), op);
  }
  co_return co_await allreduce_v_rd(comm, std::move(values), op, kTagAllreduceV);
}

sim::Task<void> window_sync(Comm& comm, double window_s, int master, int rounds) {
  const int p = comm.size();
  SCI_SIM_SPAN(span, comm.world().engine(), comm.rank(), "window_sync", "coll",
               {{"p", p}, {"rounds", rounds}});
  if (p == 1) co_return;

  if (comm.rank() == master) {
    // Estimate each rank's clock offset from the minimum-RTT ping-pong:
    // offset ~ slave_local - (t1 + t2) / 2 measured in master-local time.
    std::vector<double> offsets(static_cast<std::size_t>(p), 0.0);
    for (int r = 0; r < p; ++r) {
      if (r == master) continue;
      double best_rtt = std::numeric_limits<double>::infinity();
      double best_offset = 0.0;
      for (int k = 0; k < rounds; ++k) {
        const double t1 = comm.wtime();
        co_await comm.send(r, kTagSync, kCtrlBytes);
        Message m = co_await comm.recv(r, kTagSync + 1);
        const double t2 = comm.wtime();
        const double rtt = t2 - t1;
        if (rtt < best_rtt) {
          best_rtt = rtt;
          best_offset = m.payload.at(0) - (t1 + t2) / 2.0;
        }
      }
      offsets[static_cast<std::size_t>(r)] = best_offset;
    }
    // Broadcast the start: each rank gets its *local* start time.
    const double start_master_local = comm.wtime() + window_s;
    for (int r = 0; r < p; ++r) {
      if (r == master) continue;
      const double start_r = start_master_local + offsets[static_cast<std::size_t>(r)];
      co_await comm.send(r, kTagSync + 2, kCtrlBytes, std::vector<double>(1, start_r));
    }
    co_await comm.wait_until_local(start_master_local);
  } else {
    for (int k = 0; k < rounds; ++k) {
      (void)co_await comm.recv(master, kTagSync);
      co_await comm.send(master, kTagSync + 1, kCtrlBytes, std::vector<double>(1, comm.wtime()));
    }
    Message m = co_await comm.recv(master, kTagSync + 2);
    co_await comm.wait_until_local(m.payload.at(0));
  }
}

}  // namespace sci::simmpi
