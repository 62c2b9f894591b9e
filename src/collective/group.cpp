#include "collective/group.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "collective/cost_replay.hpp"
#include "tensor/convert.hpp"

namespace ca::collective {

namespace {
/// Below this many elements a rank-local loop is not worth an OpenMP team.
constexpr std::int64_t kOmpMinElems = 1 << 16;
/// Cache-friendly block for the reducing actions: the block stays L1-resident
/// while every member's contribution is added to it.
constexpr std::int64_t kReduceBlock = 2048;
/// Entries of each member's price memo: a Table 3 layer issues at most six
/// distinct (op, bytes) pairs on any one group.
constexpr std::size_t kPriceMemo = 8;

/// dst[0, n) = src[0, n), OpenMP-parallel for large n.
void copy_elems(const float* src, float* dst, std::int64_t n) {
#pragma omp parallel for schedule(static) if (n >= kOmpMinElems)
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i];
}

/// dst[0, n) = scale * src[0, n) — the fused copy-out of the reducing
/// collectives (gradient averaging costs no extra sweep).
void copy_elems_scaled(const float* src, float* dst, std::int64_t n,
                       float scale) {
  if (scale == 1.0f) {
    copy_elems(src, dst, n);
    return;
  }
#pragma omp parallel for simd schedule(static) if (parallel : n >= kOmpMinElems)
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i] * scale;
}

/// The op's modeled payload under its byte convention — what the selector,
/// the cost model, and the emitted comm span all agree on (and what
/// build_schedule stores in CommSchedule::bytes). `elem_bytes` is the wire
/// element width: a half wire halves every formula.
std::int64_t modeled_bytes(Op op, std::int64_t n_in, std::int64_t n_out, int p,
                           std::int64_t elem_bytes) {
  switch (op) {
    case Op::kAllGather:
      return n_out * elem_bytes;  // the full gathered size (NCCL convention)
    case Op::kGather:
      return n_in * p * elem_bytes;
    case Op::kScatter:
      return n_out * p * elem_bytes;
    default:
      return n_in * elem_bytes;
  }
}

}  // namespace

void CollectiveHandle::wait() {
  if (!state_) return;
  if (!state_->done) group_->drain_until(grank_, state_.get());
  // Overlap accounting: the waiter pays only the part of the comm time that
  // compute did not hide.
  auto& dev = group_->cluster_.device(grank_);
  dev.set_clock(std::max(dev.clock(), state_->t_end));
}

Group::Group(sim::Cluster& cluster, std::vector<int> ranks, std::string name,
             const AlgoPolicy* policy)
    : cluster_(cluster),
      ranks_(std::move(ranks)),
      name_(std::move(name)),
      barrier_(static_cast<std::ptrdiff_t>(ranks_.size()),
               &cluster.fault_state()),
      plan_(plan_two_level(cluster.topology(), ranks_)),
      profile_(make_cost_profile(cluster.topology(), ranks_, plan_)),
      selector_(policy),
      members_(ranks_.size()) {
  assert(!ranks_.empty());
  if (plan_.viable()) owner_perm_ = plan_.owner_permutation();
  for (auto& slot : ptrs_) slot.assign(ranks_.size(), nullptr);
  for (auto& slot : counts_) slot.assign(ranks_.size(), 0);
  for (auto& slot : clocks_) slot.assign(ranks_.size(), 0.0);
  index_.reserve(ranks_.size());
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    index_.emplace(ranks_[i], static_cast<int>(i));
  }
  // Pre-size the scratch arena from the world size so the first large
  // collective at P=1024 doesn't pay a reallocation storm inside
  // ensure_arena. Capacity only — ensure_arena still performs every resize
  // between its barriers, so the grow-only size contract (and the members'
  // arena_seen mirrors) is untouched; growth beyond this reservation simply
  // reallocates as before.
  arena_.reserve(static_cast<std::size_t>(std::bit_ceil(
      static_cast<std::uint64_t>(std::max<std::size_t>(1024, ranks_.size() * 2048)))));
}

Group::~Group() = default;

Group::PubToken Group::publish(int idx, const float* ptr, std::int64_t count,
                               double clock) {
  const auto i = static_cast<std::size_t>(idx);
  const int slot = static_cast<int>(members_[i].seq++ & 1);
  ptrs_[slot][i] = ptr;
  counts_[slot][i] = count;
  clocks_[slot][i] = clock;
  sync(idx);
  // This op's slot entries are stable from here to the end of the op: a rank
  // can only overwrite them two publishes later, and it reaches that publish
  // only after every rank has finished this op and published the next one.
  return {slot, *std::max_element(clocks_[slot].begin(), clocks_[slot].end())};
}

void Group::ensure_arena(int idx, std::int64_t elems) {
  auto& me = members_[static_cast<std::size_t>(idx)];
  if (me.arena_seen >= elems) return;
  // Every member keeps the same arena-size history, so all take this branch
  // (and its barrier) together; only member 0 touches the vector itself.
  const auto cap = static_cast<std::int64_t>(
      std::bit_ceil(static_cast<std::uint64_t>(std::max<std::int64_t>(elems, 1024))));
  if (idx == 0) arena_.resize(static_cast<std::size_t>(cap));
  me.arena_seen = cap;
  sync(idx);
}

void Group::sync(int idx) {
  try {
    barrier_.arrive_and_wait();
  } catch (const sim::RendezvousAborted&) {
    watchdog_expired(idx);
  }
}

void Group::watchdog_expired(int idx) {
  // A member died or threw: this rendezvous can never complete. Charge the
  // watchdog budget (the simulated detection latency), leave a fault span
  // on the timeline, and surface the stuck op's full context.
  const int grank = ranks_[static_cast<std::size_t>(idx)];
  const auto& me = members_[static_cast<std::size_t>(idx)];
  auto& dev = cluster_.device(grank);
  const double budget = cluster_.fault_state().watchdog();
  const double t0 = dev.clock();
  dev.advance_clock(budget);
  if (obs::MetricsSink* mx = dev.metrics()) {
    mx->counter("fault.watchdog_timeouts").inc();
  }
  if (obs::TraceBuffer* tb = dev.trace()) {
    tb->add(obs::TraceEvent{name_ + ".watchdog", obs::Category::kFault, t0,
                            t0 + budget, t0, me.cur_bytes, 0.0, 0.0, {}, {}});
  }
  throw sim::CommTimeoutError(grank, name_, me.cur_op, me.cur_bytes, budget,
                              cluster_.fault_state().cause());
}

void Group::reduce_members(int slot, std::int64_t src, float* dst,
                           std::int64_t len, float scale) {
  const int p = size();
  const auto& ptrs = ptrs_[slot];
#pragma omp parallel for schedule(static) if (len >= kOmpMinElems)
  for (std::int64_t b = 0; b < len; b += kReduceBlock) {
    const std::int64_t e = std::min(len, b + kReduceBlock);
    // Member order 0,1,...,p-1 keeps the sum bit-identical to the serial
    // reference regardless of which rank owns the range or which algorithm
    // scheduled it.
    std::copy(ptrs[0] + src + b, ptrs[0] + src + e, dst + b);
    for (int m = 1; m < p; ++m) {
      const float* s = ptrs[static_cast<std::size_t>(m)] + src;
#pragma omp simd
      for (std::int64_t i = b; i < e; ++i) dst[i] += s[i];
    }
    if (scale != 1.0f) {
#pragma omp simd
      for (std::int64_t i = b; i < e; ++i) dst[i] *= scale;
    }
  }
}

Group::Priced Group::price(Op op, Algo algo, std::int64_t bytes,
                           tensor::Dtype wire) const {
  // The pure cost-model prediction — what the calibration report joins the
  // measured span against. Fault slowdowns apply on top of it in settle(),
  // so the two agree exactly on a clean run and diverge under link
  // degradation.
  return Priced{op,
                algo,
                bytes,
                wire,
                collective_time(op, algo, profile_, bytes),
                collective_latency(op, algo, profile_, bytes),
                bytes_sent_per_rank(op, size(), bytes)};
}

const Group::Priced& Group::priced(int idx, Op op, std::int64_t bytes,
                                   tensor::Dtype wire) {
  auto& me = members_[static_cast<std::size_t>(idx)];
  // A price is a pure function of these four and the group's fixed profile,
  // so a hit is exactly what recomputing would return.
  const std::optional<Algo> forced = selector_.forced();
  const auto hit = [&](const MemberState::Memo& m) {
    return m.p.bytes == bytes && m.p.op == op && m.p.wire == wire &&
           m.forced == forced;
  };
  // Streams repeat one (op, bytes) for a while: the last hit goes first.
  if (me.memo_last < me.memo.size() && hit(me.memo[me.memo_last])) {
    return me.memo[me.memo_last].p;
  }
  for (std::size_t i = 0; i < me.memo.size(); ++i) {
    if (hit(me.memo[i])) {
      me.memo_last = i;
      return me.memo[i].p;
    }
  }
  const Algo algo =
      selector_.select(op, bytes, profile_, tensor::dtype_bytes(wire));
  const MemberState::Memo fresh{price(op, algo, bytes, wire), forced};
  if (me.memo.size() < kPriceMemo) {
    me.memo_last = me.memo.size();
    me.memo.push_back(fresh);
  } else {
    me.memo_last = me.memo_next;
    me.memo[me.memo_next] = fresh;
    me.memo_next = (me.memo_next + 1) % kPriceMemo;
  }
  return me.memo[me.memo_last].p;
}

double Group::settle(int idx, double t_start, const Priced& p,
                     sim::Device& dev, const sim::FaultInjector* fi) {
  auto& me = members_[static_cast<std::size_t>(idx)];
  // Collectives on one group serialize on its comm lane: an op starts no
  // earlier than the previous one finished, even when both were issued
  // asynchronously (every member mirrors the same lane history).
  const double begin = std::max(t_start, me.lane_busy);
  double comm = p.predicted;
  if (fi != nullptr) {
    // Link degradation stretches the op's bandwidth term; `begin` is the same
    // on every member, so all mirrors stay in lockstep.
    comm *= fi->link_slowdown(begin);
  }
  const double t_end = begin + comm;
  me.lane_busy = t_end;
  dev.add_bytes_sent(p.sent);
  if (obs::MetricsSink* mx = dev.metrics()) {
    // Like the trace emit below, this single point covers the whole comm
    // plane: every blocking call, deferred async op, and accounting twin.
    mx->observe_comm(name_, op_name(p.op), algo_name(p.algo),
                     tensor::dtype_name(p.wire), p.bytes, comm, p.predicted);
    mx->counter("comm.bytes").inc(p.bytes);
    // Lane queueing: how long this op waited behind earlier collectives on
    // the group's comm lane (0 when the lane was free at issue).
    mx->hist("comm.queue_s").record(begin - t_start);
  }
  if (obs::TraceBuffer* tb = dev.trace()) {
    // Every collective — blocking, deferred-async, or accounting twin — funnels
    // through here, so this one emit point covers the whole comm plane.
    // t_issue is the op's logical start (issue-time clock for async ops);
    // alpha is the op's latency share: its hops x the per-hop latency.
    tb->add(obs::TraceEvent{name_ + "." + op_name(p.op), obs::Category::kComm,
                            begin, t_end, t_start, p.bytes, 0.0, p.latency,
                            algo_name(p.algo), tensor::dtype_name(p.wire)});
  }
  return t_end;
}

void Group::barrier(int grank) {
  if (size() == 1) return;
  const int idx = index_of(grank);
  flush(grank);
  auto& me = members_[static_cast<std::size_t>(idx)];
  if (const sim::FaultInjector* fi = cluster_.fault_injector()) {
    fi->check_alive(grank, cluster_.device(grank).clock());
  }
  me.cur_op = "barrier";
  me.cur_bytes = 0;
  const auto tok = publish(idx, nullptr, 0, cluster_.device(grank).clock());
  cluster_.device(grank).set_clock(tok.t_start);
}

// ---- the schedule engine ----------------------------------------------------

void Group::run_action(int idx, int slot, const CommAction& a, float* out,
                       float scale) {
  const float s = a.scaled ? scale : 1.0f;
  switch (a.kind) {
    case CommAction::Kind::kReduceToArena:
      reduce_members(slot, a.src, arena_.data() + a.dst, a.len, s);
      break;
    case CommAction::Kind::kReduceToOut:
      reduce_members(slot, a.src, out + a.dst, a.len, s);
      break;
    case CommAction::Kind::kCopyArenaToOut:
      copy_elems_scaled(arena_.data() + a.src, out + a.dst, a.len, s);
      break;
    case CommAction::Kind::kCopyInToArena:
      copy_elems(ptrs_[slot][static_cast<std::size_t>(idx)] + a.src,
                 arena_.data() + a.dst, a.len);
      break;
    case CommAction::Kind::kCopyPeerToOut:
      copy_elems_scaled(ptrs_[slot][static_cast<std::size_t>(a.peer)] + a.src,
                        out + a.dst, a.len, s);
      break;
  }
}

double Group::run_collective(int grank, Op op, const float* in,
                             std::int64_t n_in, float* out, std::int64_t n_out,
                             int root, float scale, double pub_clock,
                             tensor::Dtype wire) {
  const int idx = index_of(grank);
  auto& me = members_[static_cast<std::size_t>(idx)];
  const std::int64_t elem_bytes = tensor::dtype_bytes(wire);
  const std::int64_t bytes = modeled_bytes(op, n_in, n_out, size(), elem_bytes);
  // Deterministic across members: same op/bytes/plan and a shared policy, so
  // every member compiles the same schedule with the same barrier count.
  const Priced pr = priced(idx, op, bytes, wire);
  const Algo algo = pr.algo;

  const sim::FaultInjector* fi = cluster_.fault_injector();
  // Fail-stop lands at collective *entry* — before publish, so every peer
  // read of this rank's buffers (op k-1 phases are barrier-terminated) has
  // already completed and the unwind is memory-safe.
  if (fi != nullptr) fi->check_alive(grank, cluster_.device(grank).clock());
  me.cur_op = op_name(op);
  me.cur_bytes = bytes;

  // Half-wire pack: round my input through the wire format into this op's
  // parity staging buffer and publish that, so every read of "my" data —
  // peers' folds and my own — sees exactly what crossed the wire. Writing
  // stage[seq & 1] *before* publish is race-free for the same reason user
  // buffers are: the only peers reading this staging slot (op k-2) finished
  // behind a barrier that gates my previous publish. NaNs survive the
  // rounding (quieted), so injected gradient corruption is still visible to
  // the NaN-consensus guard after the trip.
  const float* pub = in;
  if (wire != tensor::Dtype::kF32 && in != nullptr && n_in > 0) {
    auto& stage = me.stage[static_cast<std::size_t>(me.seq & 1)];
    if (std::cmp_less(stage.size(), n_in)) {
      stage.resize(static_cast<std::size_t>(n_in));
    }
    tensor::wire_round_trip(wire, in, stage.data(), n_in);
    pub = stage.data();
  }

  auto tok = publish(idx, pub, n_in, pub_clock);

  if (fi != nullptr) {
    // Transient fabric fault: every member derives the same retry sequence
    // from the same symmetric start time, so all agree on the backoff delay
    // (or on giving up) with no extra communication.
    const auto retry = fi->transient_delay(tok.t_start);
    if (retry.gave_up) {
      throw sim::CommTimeoutError(
          grank, name_, op_name(op), bytes, retry.delay,
          "transient comm fault persisted past the retry budget");
    }
    if (retry.delay > 0.0) {
      if (obs::MetricsSink* mx = cluster_.device(grank).metrics()) {
        mx->counter("fault.retries").inc();
        mx->hist("fault.retry_backoff_s").record(retry.delay);
      }
      if (obs::TraceBuffer* tb = cluster_.device(grank).trace()) {
        tb->add(obs::TraceEvent{name_ + ".retry", obs::Category::kFault,
                                tok.t_start, tok.t_start + retry.delay,
                                tok.t_start, bytes, 0.0, 0.0, {}, {}});
      }
      tok.t_start += retry.delay;
    }
  }

  const SchedKey key{static_cast<int>(op), static_cast<int>(algo), n_in, n_out,
                     root, static_cast<int>(wire)};
  auto it = me.schedules.find(key);
  if (it == me.schedules.end()) {
    it = me.schedules
             .emplace(key, build_schedule(op, algo, size(), n_in, n_out, root,
                                          owner_perm_, elem_bytes))
             .first;
  }
  const CommSchedule& sched = it->second;

  if (sched.check_uniform_counts) {
    for (int m = 0; m < size(); ++m) {
      assert(counts_[tok.slot][static_cast<std::size_t>(m)] == n_in);
      (void)m;
    }
  } else if (op == Op::kScatter) {
    assert(counts_[tok.slot][static_cast<std::size_t>(root)] ==
           n_out * size());
  }
  if (sched.arena_elems > 0) ensure_arena(idx, sched.arena_elems);

  for (const auto& ph : sched.phases) {
    for (const auto& a : ph.actions[static_cast<std::size_t>(idx)]) {
      run_action(idx, tok.slot, a, out, scale);
    }
    if (ph.barrier_after) sync(idx);
  }

  // Half-wire copy-out: the *result* crosses the wire too. Only the reducing
  // ops produce fresh fp32 sums that need rounding (one pass, AFTER the
  // fp32-accumulated canonical fold — never per hop, so the fold order and
  // hence cross-algorithm bit-identity are untouched); pure data movers
  // already hold wire-rounded payloads (the rounding is idempotent) and are
  // skipped. Broadcast roots never execute a copy action, so their buffer is
  // rounded here to keep SPMD replicas bit-identical with the receivers.
  if (wire != tensor::Dtype::kF32 && out != nullptr && n_out > 0) {
    switch (op) {
      case Op::kAllReduce:
      case Op::kReduceScatter:
        tensor::wire_round_trip(wire, out, out, n_out);
        break;
      case Op::kReduce:
      case Op::kBroadcast:
        if (idx == root) tensor::wire_round_trip(wire, out, out, n_out);
        break;
      default:
        break;
    }
  }

  return settle(idx, tok.t_start, pr, cluster_.device(grank), fi);
}

// ---- blocking and non-blocking collectives ---------------------------------

void Group::run_local(const float* in, float* out, std::int64_t n, float scale,
                      tensor::Dtype wire) {
  // A one-member "collective" is its own input, scaled. A size-1 wire still
  // yields wire-representable values, so behavior is uniform across group
  // sizes.
  const float* src = in;
  if (scale != 1.0f) {
    copy_elems_scaled(in, out, n, scale);
    src = out;
  }
  tensor::wire_round_trip(wire, src, out, n);
}

void Group::run_blocking(int grank, Op op, const float* in, std::int64_t n_in,
                         float* out, std::int64_t n_out, int root, float scale,
                         tensor::Dtype wire) {
  if (size() == 1) {
    assert(n_in == n_out);
    run_local(in, out, n_in, scale, wire);
    return;
  }
  flush(grank);
  sim::Device& dev = cluster_.device(grank);
  dev.set_clock(run_collective(grank, op, in, n_in, out, n_out, root, scale,
                               dev.clock(), wire));
}

CollectiveHandle Group::issue(int grank, Op op, const float* in,
                              std::int64_t n_in, float* out, std::int64_t n_out,
                              int root, float scale, tensor::Dtype wire) {
  auto st = std::make_shared<detail::AsyncOpState>();
  const double now = cluster_.device(grank).clock();
  if (size() == 1) {
    assert(n_in == n_out);
    run_local(in, out, n_in, scale, wire);
    st->done = true;
    st->t_end = now;
  } else {
    members_[static_cast<std::size_t>(index_of(grank))].pending.push_back(
        PendingOp{op, in, n_in, out, n_out, root, scale, wire, now, st});
  }
  return {this, grank, std::move(st)};
}

void Group::all_reduce(int grank, std::span<float> data, float scale,
                       tensor::Dtype wire) {
  const auto n = static_cast<std::int64_t>(data.size());
  run_blocking(grank, Op::kAllReduce, data.data(), n, data.data(), n,
               /*root=*/0, scale, wire);
}

void Group::reduce(int grank, std::span<float> data, int root) {
  const auto n = static_cast<std::int64_t>(data.size());
  run_blocking(grank, Op::kReduce, data.data(), n, data.data(), n, root, 1.0f,
               tensor::Dtype::kF32);
}

void Group::all_gather(int grank, std::span<const float> in,
                       std::span<float> out, tensor::Dtype wire) {
  run_blocking(grank, Op::kAllGather, in.data(),
               static_cast<std::int64_t>(in.size()), out.data(),
               static_cast<std::int64_t>(out.size()), /*root=*/0, 1.0f, wire);
}

void Group::reduce_scatter(int grank, std::span<const float> in,
                           std::span<float> out, float scale,
                           tensor::Dtype wire) {
  run_blocking(grank, Op::kReduceScatter, in.data(),
               static_cast<std::int64_t>(in.size()), out.data(),
               static_cast<std::int64_t>(out.size()), /*root=*/0, scale, wire);
}

void Group::broadcast(int grank, std::span<float> data, int root,
                      tensor::Dtype wire) {
  const auto n = static_cast<std::int64_t>(data.size());
  run_blocking(grank, Op::kBroadcast, data.data(), n, data.data(), n, root,
               1.0f, wire);
}

void Group::all_to_all(int grank, std::span<const float> in,
                       std::span<float> out) {
  assert(in.size() % static_cast<std::size_t>(size()) == 0);
  run_blocking(grank, Op::kAllToAll, in.data(),
               static_cast<std::int64_t>(in.size()), out.data(),
               static_cast<std::int64_t>(out.size()), /*root=*/0, 1.0f,
               tensor::Dtype::kF32);
}

void Group::gather(int grank, std::span<const float> in, std::span<float> out,
                   int root) {
  assert(index_of(grank) != root ||
         out.size() == in.size() * static_cast<std::size_t>(size()));
  run_blocking(grank, Op::kGather, in.data(),
               static_cast<std::int64_t>(in.size()), out.data(),
               static_cast<std::int64_t>(out.size()), root, 1.0f,
               tensor::Dtype::kF32);
}

void Group::scatter(int grank, std::span<const float> in, std::span<float> out,
                    int root) {
  // only root's input matters; everyone publishes so sizes are visible
  run_blocking(grank, Op::kScatter, in.data(),
               static_cast<std::int64_t>(in.size()), out.data(),
               static_cast<std::int64_t>(out.size()), root, 1.0f,
               tensor::Dtype::kF32);
}

CollectiveHandle Group::all_reduce_async(int grank, std::span<float> data,
                                         float scale, tensor::Dtype wire) {
  const auto n = static_cast<std::int64_t>(data.size());
  return issue(grank, Op::kAllReduce, data.data(), n, data.data(), n,
               /*root=*/0, scale, wire);
}

CollectiveHandle Group::reduce_scatter_async(int grank,
                                             std::span<const float> in,
                                             std::span<float> out, float scale,
                                             tensor::Dtype wire) {
  return issue(grank, Op::kReduceScatter, in.data(),
               static_cast<std::int64_t>(in.size()), out.data(),
               static_cast<std::int64_t>(out.size()), /*root=*/0, scale, wire);
}

CollectiveHandle Group::all_gather_async(int grank, std::span<const float> in,
                                         std::span<float> out,
                                         tensor::Dtype wire) {
  return issue(grank, Op::kAllGather, in.data(),
               static_cast<std::int64_t>(in.size()), out.data(),
               static_cast<std::int64_t>(out.size()), /*root=*/0, 1.0f, wire);
}

void Group::run_pending(int grank, PendingOp& op) {
  // Deferred ops replay through the same schedule engine as blocking calls,
  // so async results stay bit-identical; only the published clock differs.
  op.st->t_end = run_collective(grank, op.op, op.in, op.n_in, op.out, op.n_out,
                                op.root, op.scale, op.issue_clock, op.wire);
  op.st->done = true;
}

void Group::drain_until(int grank, const detail::AsyncOpState* target) {
  auto& me = members_[static_cast<std::size_t>(index_of(grank))];
  while (!target->done) {
    assert(!me.pending.empty() &&
           "waiting on an async collective this member never issued");
    run_pending(grank, me.pending.front());
    me.pending.pop_front();
  }
}

void Group::flush(int grank) {
  if (size() == 1) return;
  auto& me = members_[static_cast<std::size_t>(index_of(grank))];
  while (!me.pending.empty()) {
    run_pending(grank, me.pending.front());
    me.pending.pop_front();
  }
}

// ---- accounting twins -------------------------------------------------------

void Group::account(int grank, Op op, std::int64_t bytes) {
  if (size() == 1) return;
  flush(grank);
  const int idx = index_of(grank);
  auto& me = members_[static_cast<std::size_t>(idx)];
  sim::Device& dev = cluster_.device(grank);
  const sim::FaultInjector* fi = cluster_.fault_injector();
  if (fi != nullptr) fi->check_alive(grank, dev.clock());
  me.cur_op = op_name(op);
  me.cur_bytes = bytes;
  const auto tok = publish(idx, nullptr, bytes, dev.clock());
  // Same selector as the functional path, so the accounting twin charges
  // exactly what the matching data-moving call would.
  dev.set_clock(settle(idx, tok.t_start, priced(idx, op, bytes), dev, fi));
}

void Group::account_all_reduce(int grank, std::int64_t bytes) {
  account(grank, Op::kAllReduce, bytes);
}
void Group::account_reduce_scatter(int grank, std::int64_t bytes) {
  account(grank, Op::kReduceScatter, bytes);
}
void Group::account_all_gather(int grank, std::int64_t bytes) {
  account(grank, Op::kAllGather, bytes);
}
void Group::account_broadcast(int grank, std::int64_t bytes) {
  account(grank, Op::kBroadcast, bytes);
}
void Group::account_reduce(int grank, std::int64_t bytes) {
  account(grank, Op::kReduce, bytes);
}
void Group::account_all_to_all(int grank, std::int64_t bytes) {
  account(grank, Op::kAllToAll, bytes);
}

}  // namespace ca::collective
