#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/knobs.hpp"
#include "sim/scheduler.hpp"

namespace ca::sim {

// ---- structured fault errors ------------------------------------------------

/// Fail-stop death of one simulated device (the injected "rank crashed"
/// event). Thrown on the dying rank's thread; surviving ranks observe it as a
/// CommTimeoutError at their next rendezvous with the dead member.
class DeviceFailure : public std::runtime_error {
 public:
  DeviceFailure(int rank, std::int64_t step, double clock)
      : std::runtime_error("fail-stop fault on rank " + std::to_string(rank) +
                           (step >= 0 ? " at step " + std::to_string(step)
                                      : " at t=" + std::to_string(clock)) +
                           " (injected device death)"),
        rank_(rank),
        step_(step),
        clock_(clock) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] std::int64_t step() const { return step_; }
  [[nodiscard]] double clock() const { return clock_; }

 private:
  int rank_;
  std::int64_t step_;
  double clock_;
};

/// Raised by the collective watchdog on every *surviving* member of a group
/// whose rendezvous cannot complete (a member died or the fabric stayed
/// faulty past the retry budget). Carries the full context of the stuck
/// operation so recovery code can decide what to rebuild.
class CommTimeoutError : public std::runtime_error {
 public:
  CommTimeoutError(int rank, std::string group, std::string op,
                   std::int64_t bytes, double elapsed, std::string cause)
      : std::runtime_error("collective watchdog: rank " + std::to_string(rank) +
                           " timed out in " + group + "." + op + " (" +
                           std::to_string(bytes) + " B) after " +
                           std::to_string(elapsed) + " s" +
                           (cause.empty() ? "" : ": " + cause)),
        rank_(rank),
        group_(std::move(group)),
        op_(std::move(op)),
        bytes_(bytes),
        elapsed_(elapsed) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] const std::string& group() const { return group_; }
  [[nodiscard]] const std::string& op() const { return op_; }
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }
  [[nodiscard]] double elapsed() const { return elapsed_; }

 private:
  int rank_;
  std::string group_, op_;
  std::int64_t bytes_;
  double elapsed_;
};

// ---- fault plan -------------------------------------------------------------

enum class FaultKind : std::uint8_t {
  kFailStop,       ///< device dies (by step index or sim clock) and never returns
  kStraggler,      ///< one rank computes `factor`x slower inside a clock window
  kLinkDegrade,    ///< all collectives run `factor`x slower inside a window
  kGradCorrupt,    ///< NaN written into a rank's gradient buffer at a step
  kTransientComm,  ///< collectives starting inside the window fail and retry
  kCkptCorrupt,    ///< flip one bit in the checkpoint written at a step
};

/// One scheduled fault. Triggers are either a step index (`step >= 0`,
/// checked at engine-step granularity) or a sim-clock instant/window (`at >=
/// 0`). `factor` is the slowdown multiplier for straggler/link faults.
struct FaultSpec {
  FaultKind kind = FaultKind::kFailStop;
  int rank = -1;           ///< target rank; -1 = any (kLinkDegrade/kTransientComm)
  std::int64_t step = -1;  ///< engine-step trigger
  double at = -1.0;        ///< sim-clock trigger / window start (seconds)
  double duration = 0.0;   ///< window length (seconds)
  double factor = 1.0;     ///< slowdown multiplier (>= 1)
};

/// A deterministic, seeded fault schedule plus the watchdog/retry knobs.
/// Entirely data; install on a Cluster to activate. Build programmatically
/// with the fluent setters or from CA_FAULT_* environment variables.
struct FaultPlan {
  std::vector<FaultSpec> specs;
  std::uint64_t seed = 0;
  /// Sim-time the watchdog waits at a broken rendezvous before raising
  /// CommTimeoutError on the survivors (CA_FAULT_WATCHDOG).
  double watchdog = 1.0;
  /// Minimum retry backoff for transient comm faults; the first retry waits
  /// exactly this, later retries draw seeded decorrelated jitter in
  /// [retry_base, 3 * previous) capped at retry_base * 2^max_retries
  /// (CA_FAULT_RETRY_BASE).
  double retry_base = 0.25;
  /// Retries before a transient fault is promoted to CommTimeoutError
  /// (CA_FAULT_RETRIES).
  int max_retries = 5;

  FaultPlan& fail_stop(int rank, std::int64_t step) {
    specs.push_back({FaultKind::kFailStop, rank, step, -1.0, 0.0, 1.0});
    return *this;
  }
  FaultPlan& fail_stop_at(int rank, double clock) {
    specs.push_back({FaultKind::kFailStop, rank, -1, clock, 0.0, 1.0});
    return *this;
  }
  FaultPlan& straggler(int rank, double from, double duration, double factor) {
    specs.push_back({FaultKind::kStraggler, rank, -1, from, duration, factor});
    return *this;
  }
  FaultPlan& degrade_links(double from, double duration, double factor) {
    specs.push_back({FaultKind::kLinkDegrade, -1, -1, from, duration, factor});
    return *this;
  }
  FaultPlan& corrupt_grads(int rank, std::int64_t step) {
    specs.push_back({FaultKind::kGradCorrupt, rank, step, -1.0, 0.0, 1.0});
    return *this;
  }
  FaultPlan& transient_comm(double from, double duration) {
    specs.push_back({FaultKind::kTransientComm, -1, -1, from, duration, 1.0});
    return *this;
  }
  /// Flip one bit in the checkpoint file written at `step`. `offset` < 0
  /// picks a seeded position past the magic; >= 0 pins the byte (stored in
  /// `at` since clock triggers do not apply to this kind).
  FaultPlan& corrupt_checkpoint(std::int64_t step, std::int64_t offset = -1) {
    specs.push_back({FaultKind::kCkptCorrupt, -1, step,
                     static_cast<double>(offset), 0.0, 1.0});
    return *this;
  }

  /// Deterministic uniform [0,1) stream derived from `seed` (splitmix64):
  /// jitter(k) is stable across runs/platforms, so randomized plans are
  /// reproducible from the seed alone.
  [[nodiscard]] double jitter(std::uint64_t k) const;

  /// The plan the CA_FAULT_* knobs describe (grammar and ranges in the knob
  /// table, core/knobs.cpp); nullopt when none is set in the environment.
  /// The watchdog takes the resolved `fault.watchdog` value either way.
  static std::optional<FaultPlan> from_env(
      const core::Knobs& knobs = core::Knobs::resolve());
};

/// Read-mostly query object the instrumented layers consult. All queries are
/// pure functions of (plan, arguments) — no internal mutation — so concurrent
/// rank threads need no synchronization and identical arguments yield
/// identical answers on every member (the property the symmetric injection
/// points rely on).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Engine-step boundary check; throws DeviceFailure when a step-triggered
  /// fail-stop matches this rank and step.
  void on_step(int rank, std::int64_t step, double clock) const;

  /// Collective-entry check; throws DeviceFailure when a clock-triggered
  /// fail-stop has matured for this rank.
  void check_alive(int rank, double clock) const;

  /// Compute slowdown multiplier (>= 1) for `rank` at sim-time `t`.
  [[nodiscard]] double compute_slowdown(int rank, double t) const;

  /// Collective slowdown multiplier (>= 1) for an op starting at sim-time
  /// `t` — the link-bandwidth degradation model.
  [[nodiscard]] double link_slowdown(double t) const;

  /// Whether `rank` should see its gradients corrupted (NaN) at `step`.
  [[nodiscard]] bool corrupt_grads(int rank, std::int64_t step) const;

  /// Whether the checkpoint written at `step` should be bit-flipped. On a
  /// match `offset` receives the pinned byte offset (-1 = pick a seeded one).
  [[nodiscard]] bool corrupt_checkpoint(std::int64_t step,
                                        std::int64_t* offset) const;

  /// Transient-fault retry simulation for a collective whose (symmetric)
  /// start time is `t`: the total backoff delay spent retrying, how many
  /// retries it took, and whether the retry budget ran out (`gave_up`, in
  /// which case the caller raises CommTimeoutError on every member).
  struct RetryResult {
    double delay = 0.0;
    int retries = 0;
    bool gave_up = false;
  };
  [[nodiscard]] RetryResult transient_delay(double t) const;

 private:
  FaultPlan plan_;
};

// ---- abort plumbing ---------------------------------------------------------

/// Internal signal thrown by AbortableBarrier when the SPMD region aborted
/// while (or before) a thread waited. The collective layer catches it and
/// rethrows a contextual CommTimeoutError; user code never sees this type.
struct RendezvousAborted {};

/// Cluster-wide failure registry: which ranks died, the first cause, and the
/// wakers (barriers, p2p channels) to notify so no surviving thread stays
/// blocked on a rendezvous with a dead peer. One per Cluster.
class FaultState {
 public:
  /// Mark the region aborted (idempotent beyond the first cause) and wake
  /// every registered waiter. `device_death` distinguishes an injected/organic
  /// rank death (recorded in dead_ranks) from a plain exception unwind.
  void abort(int rank, const std::string& cause, bool device_death);

  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }
  /// First abort cause ("" while not aborted). Main thread / post-join only.
  [[nodiscard]] std::string cause() const;
  /// Ranks that died with a DeviceFailure, in abort order.
  [[nodiscard]] std::vector<int> dead_ranks() const;

  /// Sim-time budget survivors charge before raising CommTimeoutError.
  [[nodiscard]] double watchdog() const { return watchdog_; }
  void set_watchdog(double seconds) { watchdog_ = seconds; }

  /// Register/unregister a wake callback (keyed by owner address) fired on
  /// abort. The callback must only lock its own mutex and notify.
  void register_waker(const void* key, std::function<void()> wake);
  void unregister_waker(const void* key);

  /// Re-arm for a fresh SPMD region (Cluster::run calls this on entry).
  void reset();

  /// Clear the abort flag *mid-region* after an elastic recovery round has
  /// agreed on the survivor set: the cause is dropped but dead_ranks stays
  /// (it is the consensus input for any later failure), and the region is
  /// marked recovered so Cluster::run can swallow the dead ranks' expected
  /// DeviceFailure unwinds. Call only from the single recovery leader while
  /// every survivor is parked in the coordinator.
  void rearm();

  /// Whether rearm() ran at least once since the last reset().
  [[nodiscard]] bool recovered() const {
    return recovered_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> aborted_{false};
  std::atomic<bool> recovered_{false};
  double watchdog_ = 1.0;
  mutable std::mutex mu_;
  std::string cause_;
  std::vector<int> dead_ranks_;
  std::vector<std::pair<const void*, std::function<void()>>> wakers_;
};

/// Drop-in replacement for the rendezvous std::barrier that can be cancelled
/// by a FaultState: when any rank aborts the SPMD region, every rank blocked
/// here (and every later arrival) throws RendezvousAborted instead of
/// waiting forever on the dead member. With a null FaultState it degrades to
/// a plain generation-counting barrier. Blocking goes through SimCv, so under
/// the tasks backend a waiting rank parks its fiber and yields the worker
/// instead of blocking an OS thread.
class AbortableBarrier {
 public:
  AbortableBarrier(std::ptrdiff_t n, FaultState* fs) : n_(n), fs_(fs) {
    if (fs_ != nullptr) {
      fs_->register_waker(this, [this] {
        std::lock_guard<std::mutex> lk(mu_);
        cv_.notify_all();
      });
    }
  }
  ~AbortableBarrier() {
    if (fs_ != nullptr) fs_->unregister_waker(this);
  }
  AbortableBarrier(const AbortableBarrier&) = delete;
  AbortableBarrier& operator=(const AbortableBarrier&) = delete;

  void arrive_and_wait() {
    arrive_and_wait([] {});
  }

  /// arrive_and_wait() where the last member to arrive first runs
  /// `on_last()`, under the barrier's lock, before any member is released:
  /// everything the others wrote before arriving is visible to it, and
  /// everything it writes is visible to them after they return. If it
  /// throws, the arrival is withdrawn and the exception propagates from the
  /// last arriver alone; the others stay parked until the region aborts.
  template <class F>
  void arrive_and_wait(F&& on_last) {
    std::unique_lock<std::mutex> lk(mu_);
    if (fs_ != nullptr && fs_->aborted()) throw RendezvousAborted{};
    if (++count_ == n_) {
      try {
        on_last();
      } catch (...) {
        --count_;
        throw;
      }
      count_ = 0;
      ++gen_;
      cv_.notify_all();
      return;
    }
    const std::uint64_t my_gen = gen_;
    cv_.wait(lk, [&] {
      return gen_ != my_gen || (fs_ != nullptr && fs_->aborted());
    });
    if (gen_ == my_gen) {
      // Aborted before the barrier filled: withdraw our arrival so the
      // count stays consistent for any thread still unwinding through here.
      --count_;
      throw RendezvousAborted{};
    }
  }

 private:
  std::ptrdiff_t n_, count_ = 0;
  std::uint64_t gen_ = 0;
  FaultState* fs_;
  std::mutex mu_;
  SimCv cv_;
};

}  // namespace ca::sim
