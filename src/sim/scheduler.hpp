#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

namespace ca::sim {

/// How Cluster::run executes the SPMD region (CA_SIM_BACKEND / `sim.backend`):
///   kThreads — one OS thread per rank. The correctness oracle: simple,
///              preemptive, but caps practical world size around 64.
///   kTasks   — every rank is a stackful fiber multiplexed on a fixed worker
///              pool; a rank runs to its next blocking point (rendezvous
///              arrival, p2p wait, abort-wait) and yields the worker instead
///              of parking an OS thread. Scales to 1024+ ranks.
/// Both backends produce bit-identical losses, simulated clocks, and trace
/// summaries (see DESIGN.md section 8).
enum class SimBackend { kThreads, kTasks };

/// Parse a knob value ("threads" / "tasks"); nullopt for anything else.
[[nodiscard]] std::optional<SimBackend> parse_backend(const std::string& name);
/// Lower-case wire name, the inverse of parse_backend.
[[nodiscard]] const char* backend_name(SimBackend b);

namespace detail {
struct Fiber;
}

/// Intrusive FIFO of fibers parked at one blocking point (a SimCv). The
/// embedding object's mutex guards the queue; the scheduler only touches it
/// through TaskScheduler::suspend / notify_queue, both called with that mutex
/// held.
class TaskWaitQueue {
 public:
  TaskWaitQueue() = default;
  TaskWaitQueue(const TaskWaitQueue&) = delete;
  TaskWaitQueue& operator=(const TaskWaitQueue&) = delete;

  [[nodiscard]] bool empty() const { return head_ == nullptr; }

 private:
  friend class TaskScheduler;
  detail::Fiber* head_ = nullptr;
  detail::Fiber* tail_ = nullptr;
};

/// The OpenMP team each of `concurrent` ranks running side by side gets in
/// an SPMD region: the hardware threads split evenly over them, at least 1,
/// and never wider than the calling thread's own setting (so a process run
/// with OMP_NUM_THREADS=1 keeps one thread per rank). Without the split,
/// every rank's tensor kernels would open a full team and the ranks' teams
/// together would oversubscribe the cores.
[[nodiscard]] int omp_team_per_rank(int concurrent);
/// Set the calling thread's OpenMP team to `team`; a no-op (no libgomp
/// per-thread state is created) when it already is.
void set_omp_team(int team);

/// The run-to-blocking-point fiber scheduler behind SimBackend::kTasks.
/// `run` turns each rank into a stackful fiber (mmap'd stack, guard page at
/// the low end, kept on a process-wide free list for the next run; switched
/// by a register-only asm routine on x86-64 and by swapcontext elsewhere)
/// and drives all of them on a fixed pool of worker threads, the calling
/// thread among them;
/// a fiber that blocks parks itself on a TaskWaitQueue via SimCv and the
/// worker picks up the next ready fiber. Wake-ups use a three-state handshake
/// (running / parked / ready) so a notifier racing the fiber's switch-out can
/// never lose the wake or resume a fiber whose stack is still live (see
/// DESIGN.md section 8).
class TaskScheduler {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread, clamped to the world size.
    /// Each worker runs its fibers with an omp_team_per_rank(workers) team.
    int workers = 0;
    /// Per-fiber stack bytes; 0 = default (1 MiB, more under sanitizers).
    std::size_t stack_bytes = 0;
  };

  /// Run body(r) for every rank r in [0, n) as fibers on the worker pool and
  /// return when all finished. `clock_of(r)` supplies the simulated clock the
  /// scheduler binds to obs::ThreadClock while rank r runs — the binding is
  /// task-local: it follows the fiber across workers, so shared-pool memory
  /// samples stay attributed to the allocating rank. `body` must not let
  /// exceptions escape (Cluster::run's wrapper catches them per rank).
  static void run(int n, const std::function<void(int)>& body,
                  const std::function<const double*(int)>& clock_of,
                  const Options& opts);

  /// True when the calling code is executing on a scheduler fiber (and must
  /// therefore yield instead of blocking the OS thread).
  [[nodiscard]] static bool on_fiber();

  /// Park the current fiber on `q` and yield the worker. `lk` (the mutex
  /// guarding `q`) is held on entry, released while parked, and reacquired
  /// before returning — std::condition_variable::wait semantics. Spurious
  /// returns are possible; callers re-check their predicate.
  static void suspend(std::unique_lock<std::mutex>& lk, TaskWaitQueue& q);

  /// Move every fiber parked on `q` to the ready queue (notify_all). The
  /// caller holds the mutex guarding `q`; safe from fibers and from plain
  /// threads alike.
  static void notify_queue(TaskWaitQueue& q);
};

/// Hybrid condition variable for code that must block correctly under both
/// backends: waits from scheduler fibers park the fiber on the embedded
/// TaskWaitQueue, waits from plain threads fall through to the
/// std::condition_variable. notify_all wakes both kinds of waiter and — like
/// every notify site in this codebase — must be called with the mutex passed
/// to wait() held, which is what makes the fiber park/wake handshake
/// race-free.
class SimCv {
 public:
  template <class Pred>
  void wait(std::unique_lock<std::mutex>& lk, Pred pred) {
    if (TaskScheduler::on_fiber()) {
      while (!pred()) TaskScheduler::suspend(lk, q_);
    } else {
      cv_.wait(lk, std::move(pred));
    }
  }

  void notify_all() {
    cv_.notify_all();
    if (!q_.empty()) TaskScheduler::notify_queue(q_);
  }

 private:
  std::condition_variable cv_;
  TaskWaitQueue q_;
};

}  // namespace ca::sim
