#include "simmpi/replay.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/format.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sci::simmpi {
namespace {

[[noreturn]] void parse_error(std::size_t line, const std::string& message) {
  throw std::invalid_argument("parse_schedule: line " + std::to_string(line) + ": " +
                              message);
}

}  // namespace

std::size_t Schedule::total_ops() const {
  std::size_t total = 0;
  for (const auto& ops : per_rank) total += ops.size();
  return total;
}

Schedule parse_schedule(const std::string& text, int ranks) {
  if (ranks < 1) throw std::invalid_argument("parse_schedule: ranks >= 1");
  Schedule schedule;
  schedule.ranks = ranks;
  schedule.per_rank.assign(static_cast<std::size_t>(ranks), {});

  // -1 = "all ranks", otherwise the active rank.
  int active = -2;  // unset until the first rank/all directive
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;

    auto emit = [&](const Op& op) {
      if (active == -2) parse_error(line_no, "op before any 'rank N' or 'all' directive");
      if (active == -1) {
        for (auto& ops : schedule.per_rank) ops.push_back(op);
      } else {
        schedule.per_rank[static_cast<std::size_t>(active)].push_back(op);
      }
    };
    auto require_rank = [&](int r, const char* what) {
      if (r < 0 || r >= ranks) {
        parse_error(line_no, std::string(what) + " " + std::to_string(r) +
                                 " out of range for " + std::to_string(ranks) + " ranks");
      }
    };

    if (word == "rank") {
      int r = -1;
      if (!(ls >> r)) parse_error(line_no, "rank directive needs a number");
      require_rank(r, "rank");
      active = r;
    } else if (word == "all") {
      active = -1;
    } else if (word == "calc") {
      Op op;
      op.kind = OpKind::kCalc;
      if (!(ls >> op.seconds) || op.seconds < 0.0) {
        parse_error(line_no, "calc needs a non-negative duration");
      }
      emit(op);
    } else if (word == "send") {
      Op op;
      op.kind = OpKind::kSend;
      std::string bytes;
      if (!(ls >> op.peer >> bytes >> op.tag)) {
        parse_error(line_no, "send needs <dst> <bytes> <tag>");
      }
      const auto size = core::parse_number<std::size_t>(bytes);
      if (!size) parse_error(line_no, "send bytes must be a whole count");
      op.bytes = *size;
      require_rank(op.peer, "send destination");
      emit(op);
    } else if (word == "recv") {
      Op op;
      op.kind = OpKind::kRecv;
      std::string src;
      if (!(ls >> src >> op.tag)) parse_error(line_no, "recv needs <src|any> <tag>");
      if (src == "any") {
        op.peer = kAnySource;
      } else {
        const auto peer = core::parse_number<int>(src);
        if (!peer) parse_error(line_no, "recv source must be a rank or 'any'");
        op.peer = *peer;
        require_rank(op.peer, "recv source");
      }
      emit(op);
    } else if (word == "barrier") {
      Op op;
      op.kind = OpKind::kBarrier;
      emit(op);
    } else if (word == "reduce") {
      Op op;
      op.kind = OpKind::kReduce;
      if (!(ls >> op.peer)) parse_error(line_no, "reduce needs <root>");
      require_rank(op.peer, "reduce root");
      emit(op);
    } else if (word == "allreduce") {
      Op op;
      op.kind = OpKind::kAllreduce;
      emit(op);
    } else {
      parse_error(line_no, "unknown op '" + word + "'");
    }
    std::string trailing;
    if (ls >> trailing) parse_error(line_no, "trailing token '" + trailing + "'");
  }
  return schedule;
}

ReplayResult replay(const Schedule& schedule, const sim::Machine& machine,
                    std::uint64_t seed) {
  if (schedule.ranks < 1) throw std::invalid_argument("replay: empty schedule");
  World world(machine, schedule.ranks, seed);
  ReplayResult result;
  result.rank_finish_s.assign(static_cast<std::size_t>(schedule.ranks), 0.0);

  world.launch([&](Comm& c) -> sim::Task<void> {
    const auto& ops = schedule.per_rank[static_cast<std::size_t>(c.rank())];
    for (const Op& op : ops) {
      switch (op.kind) {
        case OpKind::kCalc: co_await c.compute(op.seconds); break;
        case OpKind::kSend: co_await c.send(op.peer, op.tag, op.bytes); break;
        case OpKind::kRecv: (void)co_await c.recv(op.peer, op.tag); break;
        case OpKind::kBarrier: co_await barrier(c); break;
        case OpKind::kReduce: (void)co_await reduce(c, 1.0, op.peer); break;
        case OpKind::kAllreduce: (void)co_await allreduce(c, 1.0); break;
      }
    }
    result.rank_finish_s[static_cast<std::size_t>(c.rank())] = c.world().engine().now();
  });
  world.run();
  result.messages = world.messages_delivered();
  return result;
}

double ReplayResult::completion_s() const {
  return *std::max_element(rank_finish_s.begin(), rank_finish_s.end());
}

Schedule make_stencil_skeleton(int ranks, int steps, double work_s,
                               std::size_t halo_bytes) {
  if (ranks < 2) throw std::invalid_argument("make_stencil_skeleton: ranks >= 2");
  if (steps < 1) throw std::invalid_argument("make_stencil_skeleton: steps >= 1");
  Schedule schedule;
  schedule.ranks = ranks;
  schedule.per_rank.assign(static_cast<std::size_t>(ranks), {});

  for (int r = 0; r < ranks; ++r) {
    auto& ops = schedule.per_rank[static_cast<std::size_t>(r)];
    const int left = (r - 1 + ranks) % ranks;
    const int right = (r + 1) % ranks;
    for (int s = 0; s < steps; ++s) {
      ops.push_back({OpKind::kCalc, work_s, 0, 0, 0});
      // Halo exchange: send both ways, then receive both (eager sends
      // complete locally, so this cannot deadlock).
      ops.push_back({OpKind::kSend, 0.0, right, halo_bytes, 2 * s});
      ops.push_back({OpKind::kSend, 0.0, left, halo_bytes, 2 * s + 1});
      ops.push_back({OpKind::kRecv, 0.0, left, 0, 2 * s});
      ops.push_back({OpKind::kRecv, 0.0, right, 0, 2 * s + 1});
      // Global convergence check.
      Op ar;
      ar.kind = OpKind::kAllreduce;
      ops.push_back(ar);
    }
  }
  return schedule;
}

}  // namespace sci::simmpi
