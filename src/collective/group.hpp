#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "collective/algo.hpp"
#include "collective/cost.hpp"
#include "collective/schedule.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"
#include "tensor/dtype.hpp"

namespace ca::collective {

class CostReplay;
class Group;

namespace detail {
struct ReplayTables;  // cost_replay.hpp

/// Completion record shared between a CollectiveHandle and the issuing
/// group's deferred-op queue. Touched only by the owning member's thread
/// (issue, execution inside a drain, and wait/test all happen there).
struct AsyncOpState {
  bool done = false;
  double t_end = 0.0;  ///< simulated completion time of the collective
};
}  // namespace detail

/// Handle to a non-blocking collective (all_reduce_async & friends), the
/// moral equivalent of an MPI_Request / NCCL stream event.
///
/// * `wait()` guarantees the operation has executed and charges the caller's
///   logical clock with `max(clock, t_end)` — communication that finished
///   under compute costs nothing, the canonical overlap accounting.
/// * `test()` reports whether the operation has already been executed by an
///   earlier wait()/flush on this member; it never executes work itself
///   (execution requires a group rendezvous, which cannot be entered
///   non-blockingly).
///
/// Handles are waited on the thread that issued them. Waiting out of issue
/// order is allowed: wait() first drains every earlier pending op of this
/// member, preserving the group-wide issue order.
class CollectiveHandle {
 public:
  CollectiveHandle() = default;

  /// Ensure the op (and every op issued before it) has executed, then align
  /// the device clock to the op's completion time. Idempotent.
  void wait();
  /// True once the op has executed (after some wait()/flush reached it).
  [[nodiscard]] bool test() const { return !state_ || state_->done; }
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

 private:
  friend class Group;
  CollectiveHandle(Group* group, int grank,
                   std::shared_ptr<detail::AsyncOpState> state)
      : group_(group), grank_(grank), state_(std::move(state)) {}

  Group* group_ = nullptr;
  int grank_ = 0;
  std::shared_ptr<detail::AsyncOpState> state_;
};

/// A process group: the subset of ranks a collective runs over, with its own
/// rendezvous barrier. Mirrors an MPI communicator / NCCL communicator.
///
/// All collective methods are SPMD: every member rank must call the same
/// method in the same order with equally-sized buffers. `grank` is the
/// caller's *global* rank. Real data moves through shared memory; on top of
/// the data movement each call advances the member devices' logical clocks by
/// the topology-model time and charges per-rank interconnect bytes, so
/// functional runs produce simulated timings for free.
///
/// Every collective is compiled into a CommSchedule — the explicit list of
/// per-member actions between rendezvous barriers — by build_schedule() and
/// executed by ONE engine, run_collective(). Blocking calls, deferred async
/// ops, and all eight op kinds share that engine; an AlgoSelector picks the
/// algorithm (chunked / ring / hierarchical / single-root) per call from the
/// topology, the group's two-level plan, and the message size, overridable
/// via the backend's AlgoPolicy (the `collective_algo` knob). Schedules
/// are cached per member, so the steady-state step path allocates nothing.
///
/// Rendezvous protocol (see DESIGN.md, "Kernel & collective design"):
/// pointer/count/clock slots are double-buffered by op parity, so a publish
/// needs a single barrier — op k's slot writes cannot race op k-2's reads
/// because reaching publish k requires passing publish k-1, which every rank
/// reaches only after finishing op k-2. The reducing collectives
/// (all_reduce, reduce) and all_gather run in ownership-chunked phases over
/// a grow-only scratch arena: rank i produces only its ~1/P chunk of the
/// result, a barrier, then ranks copy the finished chunks out. Total
/// data-movement work is O(N·P) instead of the naive O(N·P²), and the
/// reducing actions always fold members in ascending order — the canonical
/// association — so every rank observes bit-identical results under every
/// algorithm (see DESIGN.md section 6).
///
/// Non-blocking variants (`*_async`) use a deferred-issue queue: issuing
/// records the op and the member's clock and returns immediately, so the
/// device thread keeps computing; the op executes (through the same
/// rendezvous protocol, hence bit-identically) when a handle is waited or
/// when the member's next blocking collective flushes the queue. Simulated
/// comm time is charged against the issue-time clocks and serialized on a
/// per-group communication lane, so overlapped collectives cost only what
/// compute fails to hide (see DESIGN.md, "Async collectives").
///
/// Each method also has an `account_*` twin that performs only the
/// clock/byte accounting — the cost-model execution mode for paper-scale
/// models that would not fit in host memory. Accounting twins and barrier()
/// cost exactly one barrier crossing. A CostReplay charges the same accounts
/// without a rendezvous per call: it records them and settles a whole
/// stream at once.
class Group {
 public:
  /// `name` labels this group's comm spans in traces and reports ("data",
  /// "tensor", ...); it must not contain '.' (the report splits span names on
  /// the last dot to recover the group). `policy` (usually the Backend's) may
  /// force an algorithm for every collective on this group; it must outlive
  /// the group. nullptr means auto-select.
  Group(sim::Cluster& cluster, std::vector<int> ranks,
        std::string name = "group", const AlgoPolicy* policy = nullptr);

  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;
  ~Group();

  [[nodiscard]] const std::string& name() const { return name_; }
  /// The cluster this group communicates over (e.g. for reaching a member's
  /// Device from engine-side instrumentation).
  [[nodiscard]] sim::Cluster& cluster() { return cluster_; }
  [[nodiscard]] int size() const { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] const std::vector<int>& ranks() const { return ranks_; }
  /// Index of a global rank inside this group.
  [[nodiscard]] int index_of(int grank) const { return index_.at(grank); }
  [[nodiscard]] bool contains(int grank) const { return index_.contains(grank); }

  /// The two-level (intra-node / inter-node) partition of this group's ranks;
  /// non-viable when the group cannot benefit from hierarchical collectives.
  [[nodiscard]] const TwoLevelPlan& plan() const { return plan_; }
  /// The fixed link data every collective on this group is priced with.
  [[nodiscard]] const CostProfile& cost_profile() const { return profile_; }
  /// The algorithm the selector would pick for `op` moving `bytes` (wire
  /// bytes, elem_bytes wide each) on this group (exactly what a matching
  /// collective call will use).
  [[nodiscard]] Algo algo_for(Op op, std::int64_t bytes,
                              std::int64_t elem_bytes = 4) const {
    return selector_.select(op, bytes, profile_, elem_bytes);
  }

  /// Pure synchronization (also aligns logical clocks to the max).
  void barrier(int grank);

  // The bandwidth-bound collectives take a wire dtype: with kF16/kBF16 the
  // payload crosses the simulated interconnect in half precision — inputs
  // are rounded through the wire format on pack (so peers and my own fold
  // read rounded values), the fold itself accumulates in fp32 (canonical
  // ascending order, bit-identical across algorithms), and the result is
  // rounded through the wire format once on copy-out. Modeled bytes, cost,
  // selector crossovers, and trace spans all shrink to the 2-byte element
  // width. NaNs survive both conversions (quieted), so the NaN-consensus
  // guard still fires. Default kF32 is the exact fp32 path, bit-identical to
  // previous behavior.

  /// In-place sum over all members, multiplied by `scale` during the
  /// copy-out (fused gradient averaging: no second full sweep).
  void all_reduce(int grank, std::span<float> data, float scale = 1.0f,
                  tensor::Dtype wire = tensor::Dtype::kF32);
  /// out[i-th chunk] = scale * sum over members of their in[i-th chunk];
  /// in.size() must be size() * out.size(); in and out must not alias.
  void reduce_scatter(int grank, std::span<const float> in,
                      std::span<float> out, float scale = 1.0f,
                      tensor::Dtype wire = tensor::Dtype::kF32);
  /// out = concatenation of every member's in, in group-index order.
  void all_gather(int grank, std::span<const float> in, std::span<float> out,
                  tensor::Dtype wire = tensor::Dtype::kF32);
  /// Copy root's buffer to every member. `root` is a group index. On a half
  /// wire *every* member's buffer (root's included) holds the wire-rounded
  /// values afterwards, so SPMD replicas stay bit-identical.
  void broadcast(int grank, std::span<float> data, int root,
                 tensor::Dtype wire = tensor::Dtype::kF32);
  /// Sum every member's buffer into root's buffer (others' unchanged).
  void reduce(int grank, std::span<float> data, int root);
  /// Chunk i of my `in` goes to member i; my out chunk j comes from member j.
  void all_to_all(int grank, std::span<const float> in, std::span<float> out);
  /// Concatenate every member's `in` (group order) into root's `out`
  /// (size in.size() * size()); other members' `out` may be empty.
  void gather(int grank, std::span<const float> in, std::span<float> out,
              int root);
  /// Root's `in` (size out.size() * size()) is split into per-member chunks;
  /// each member receives its chunk in `out`. Non-root `in` may be empty.
  void scatter(int grank, std::span<const float> in, std::span<float> out,
               int root);

  // ---- non-blocking variants ----------------------------------------------
  //
  // Every member must issue the same async-op sequence (SPMD, like the
  // blocking calls), but may interleave arbitrary compute between issue and
  // wait. The referenced buffers must stay alive and untouched until the
  // handle is waited. Results are bit-identical to the blocking variants.

  [[nodiscard]] CollectiveHandle all_reduce_async(
      int grank, std::span<float> data, float scale = 1.0f,
      tensor::Dtype wire = tensor::Dtype::kF32);
  [[nodiscard]] CollectiveHandle reduce_scatter_async(
      int grank, std::span<const float> in, std::span<float> out,
      float scale = 1.0f, tensor::Dtype wire = tensor::Dtype::kF32);
  [[nodiscard]] CollectiveHandle all_gather_async(
      int grank, std::span<const float> in, std::span<float> out,
      tensor::Dtype wire = tensor::Dtype::kF32);

  /// Execute every pending async op of this member (without charging the
  /// device clock — only wait() does that). Implicit before any blocking
  /// collective, so async and blocking ops stay globally ordered.
  void flush(int grank);

  // ---- cost-model-only twins (no data movement) ---------------------------

  void account_all_reduce(int grank, std::int64_t bytes);
  void account_reduce_scatter(int grank, std::int64_t bytes);
  void account_all_gather(int grank, std::int64_t bytes);
  void account_broadcast(int grank, std::int64_t bytes);
  void account_reduce(int grank, std::int64_t bytes);
  void account_all_to_all(int grank, std::int64_t bytes);

 private:
  friend class CollectiveHandle;
  friend class CostReplay;

  /// Result of a publish rendezvous: which parity slot this op's pointers
  /// landed in, and the max of the members' clocks at entry (the collective's
  /// logical start time, captured before any rank can republish).
  struct PubToken {
    int slot;
    double t_start;
  };

  /// A deferred async op, executed in issue order by drains/flushes: the
  /// arguments of its run_collective call, minus the clock it publishes.
  struct PendingOp {
    Op op;
    const float* in = nullptr;  // published input (in == out: in place)
    std::int64_t n_in = 0;
    float* out = nullptr;
    std::int64_t n_out = 0;
    int root = 0;
    float scale = 1.0f;
    tensor::Dtype wire = tensor::Dtype::kF32;
    double issue_clock = 0.0;  // member's clock when the op was issued
    std::shared_ptr<detail::AsyncOpState> st;
  };

  /// Publish my pointer + count + `clock` into this op's parity slot and
  /// rendezvous (one barrier). After it returns, every member's slot entries
  /// for this op are readable until the end of the op. This is the op's one
  /// watchdog-guarded rendezvous: when the SPMD region aborts (a member died
  /// or threw) while this member waits, it charges the watchdog budget to
  /// its clock, records a fault span, and raises CommTimeoutError describing
  /// the operation it was stuck in — the no-hang guarantee of the fault
  /// model (DESIGN.md section 7). The op's later barriers wait for every
  /// member, aborted or not.
  PubToken publish(int idx, const float* ptr, std::int64_t count, double clock);

  /// publish()'s abort path: the watchdog charge, fault span and throw.
  [[noreturn]] void watchdog_expired(int idx);

  /// Ensure the scratch arena holds at least `elems` floats. Deterministic
  /// across members (each keeps a private mirror of the arena size, so all
  /// branch identically); group-index 0 performs the actual grow between two
  /// barriers. No-op (and no barrier) once the arena is big enough.
  void ensure_arena(int idx, std::int64_t elems);

  /// dst[0, len) = sum over members of their published buf[src, src+len), in
  /// ascending member order (the canonical association — bit-identical to
  /// the serial reference regardless of algorithm or executing rank), then
  /// scaled in the same cache block.
  void reduce_members(int slot, std::int64_t src, float* dst, std::int64_t len,
                      float scale);

  /// The schedule engine: publish, compile-or-fetch the schedule for the
  /// selected algorithm, execute my per-phase actions between the scheduled
  /// barriers, and settle cost/bytes/trace. EVERY collective — blocking,
  /// deferred-async, every op kind — funnels through here. `in` is the
  /// buffer published to peers, `out` the buffer my actions write (they may
  /// alias for in-place ops); `pub_clock` is the clock value to publish
  /// (current for blocking calls, the recorded issue clock for deferred
  /// ones). Returns the op's simulated completion time; the caller decides
  /// how to charge it. With a half `wire`, `in` is packed (rounded) into the
  /// member's parity staging buffer before publish and `out` is rounded
  /// after the phases run (see the blocking-API comment above).
  double run_collective(int grank, Op op, const float* in, std::int64_t n_in,
                        float* out, std::int64_t n_out, int root, float scale,
                        double pub_clock,
                        tensor::Dtype wire = tensor::Dtype::kF32);

  /// The one-member shortcut every op takes: out[0, n) = scale * in[0, n),
  /// rounded through `wire`. No rendezvous; no clock or bytes charged.
  static void run_local(const float* in, float* out, std::int64_t n,
                        float scale, tensor::Dtype wire);
  /// Every blocking collective: the one-member shortcut, or flush my pending
  /// async ops, run the op at my current clock and advance my clock to its
  /// completion.
  void run_blocking(int grank, Op op, const float* in, std::int64_t n_in,
                    float* out, std::int64_t n_out, int root, float scale,
                    tensor::Dtype wire);
  /// Every async collective: the one-member shortcut (a handle that is
  /// already done), or queue the op with my current clock as its issue time.
  CollectiveHandle issue(int grank, Op op, const float* in, std::int64_t n_in,
                         float* out, std::int64_t n_out, int root, float scale,
                         tensor::Dtype wire);

  /// Execute one schedule action on behalf of member `idx`.
  void run_action(int idx, int slot, const CommAction& a, float* out,
                  float scale);

  /// Execute one deferred op (on the issuing member's thread).
  void run_pending(int grank, PendingOp& op);
  /// Execute this member's pending ops until `target` is done.
  void drain_until(int grank, const detail::AsyncOpState* target);

  /// One collective's price on this group: what settle() charges each
  /// member. Computed once per op, whoever executes it.
  struct Priced {
    Op op;
    Algo algo;
    std::int64_t bytes;  ///< modeled payload (the span's bytes)
    tensor::Dtype wire;
    double predicted;    ///< pure cost-model seconds
    double latency;      ///< its latency share: hops x alpha (the span's alpha)
    std::int64_t sent;   ///< interconnect bytes each member pushes
  };
  [[nodiscard]] Priced price(Op op, Algo algo, std::int64_t bytes,
                             tensor::Dtype wire) const;
  /// The price of `op` moving `bytes` on a `wire` wire, with the algorithm
  /// the selector picks at that wire's element width (an account_* call
  /// prices on the default fp32 wire). Memoized per member, so concurrent
  /// callers each read their own memo: member `idx`'s, which only its own
  /// thread touches — or, during a CostReplay flush, the evaluator while
  /// every member waits in the flush. The reference is valid until the
  /// member's next priced() call.
  const Priced& priced(int idx, Op op, std::int64_t bytes,
                       tensor::Dtype wire = tensor::Dtype::kF32);

  /// Clock/byte accounting of member `idx`, whose device is `dev`: start no
  /// earlier than the group's comm-lane availability, stretch by the link
  /// degradation of `fi` (nullptr: no faults), advance the lane, charge
  /// algorithm-aware bytes, emit the algorithm-tagged comm span, and return
  /// the op's completion time.
  double settle(int idx, double t_start, const Priced& p, sim::Device& dev,
                const sim::FaultInjector* fi);
  void account(int grank, Op op, std::int64_t bytes);

  sim::Cluster& cluster_;
  std::vector<int> ranks_;
  std::string name_;
  std::unordered_map<int, int> index_;
  sim::AbortableBarrier barrier_;

  // The group's two-level topology partition, its cost profile (the fixed
  // link data every selection and settle prices with), and the hierarchical
  // chunk-owner permutation (empty when the plan is not viable), all fixed
  // at construction; the selector consults the backend's policy each call.
  TwoLevelPlan plan_;
  CostProfile profile_;
  std::vector<int> owner_perm_;
  AlgoSelector selector_;

  // Rendezvous slots, double-buffered by op parity (index [seq & 1][member]).
  std::vector<const float*> ptrs_[2];
  std::vector<std::int64_t> counts_[2];
  std::vector<double> clocks_[2];

  /// Cache key of a compiled schedule: (op, algo, n_in, n_out, root). A
  /// schedule is in elements, so one entry serves every wire dtype.
  using SchedKey = std::tuple<int, int, std::int64_t, std::int64_t, int>;

  // Per-member private state (each member thread touches only its own entry);
  // padded to a cache line to keep the counters from false-sharing.
  struct alignas(64) MemberState {
    std::int64_t seq = 0;         // ops issued; low bit picks the parity slot
    std::int64_t arena_seen = 0;  // this member's mirror of arena_.size()
    // What this member is currently rendezvousing for — context for the
    // CommTimeoutError the watchdog raises if the rendezvous breaks.
    const char* cur_op = "barrier";
    std::int64_t cur_bytes = 0;
    // This member's recorder, posted for a CostReplay flush on this group:
    // the flush's last arriver reads every member's entry.
    CostReplay* replay = nullptr;
    // Mirror of the group's communication-lane availability: collectives on
    // one group serialize on its (virtual NCCL stream) lane, so overlapped
    // async ops queue behind each other rather than sharing bandwidth. All
    // members observe the same op sequence with the same published start
    // times, so every mirror holds the same value — no sharing needed.
    double lane_busy = 0.0;
    // Deferred async ops, executed in issue order by wait()/flush().
    std::deque<PendingOp> pending;
    // Compiled schedules, one per (op, algo, sizes, root) this member
    // has executed: steady-state steps replay cached schedules and allocate
    // nothing. Private per member, so no synchronization is needed.
    std::map<SchedKey, CommSchedule> schedules;
    // priced()'s memo: up to kPriceMemo distinct prices, keyed by op, bytes,
    // wire and the algorithm the policy forced (Backend's set_forced_algo
    // may change it between ops). Grown on use, then overwritten round
    // robin (memo_next); memo_last is the entry the last lookup returned.
    struct Memo {
      Priced p;
      std::optional<Algo> forced;
    };
    std::vector<Memo> memo;
    std::size_t memo_next = 0;
    std::size_t memo_last = 0;
    // Half-wire pack staging, double-buffered by the same op parity as the
    // rendezvous slots: stage[seq & 1] holds this op's wire-rounded input
    // and is published in place of the user buffer. Safe under the parity
    // protocol for exactly the reason user buffers are: peers' reads of op
    // k-2's staging finish behind a barrier every member passed before it
    // could publish op k-1, which precedes my pack for op k. Grow-only, so
    // steady-state steps allocate nothing.
    std::vector<float> stage[2];
  };
  std::vector<MemberState> members_;

  // Grow-only scratch arena for the multi-phase collectives. Written in
  // disjoint ownership chunks during reduce/deposit phases, read-only during
  // copy-out phases, resized only inside ensure_arena's barrier pair.
  std::vector<float> arena_;

  // The evaluator tables of CostReplay flushes scoped on this group, kept
  // from one flush to the next (created by the first flush).
  std::unique_ptr<detail::ReplayTables> replay_tables_;
};

}  // namespace ca::collective
