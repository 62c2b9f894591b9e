#include "sim/scheduler.hpp"

#include <cxxabi.h>
#include <omp.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

// Fiber-switch annotations so the sanitizers track which stack is live.
// Without them ASan's fake-stack bookkeeping and TSan's happens-before graph
// both follow the OS thread and report false positives the first time a
// fiber migrates between workers.
#if defined(__has_include)
#if __has_include(<sanitizer/common_interface_defs.h>)
#include <sanitizer/common_interface_defs.h>
#endif
#if __has_include(<sanitizer/tsan_interface.h>)
#include <sanitizer/tsan_interface.h>
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define CA_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CA_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define CA_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CA_TSAN_FIBERS 1
#endif
#endif

#ifdef CA_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#endif

#if defined(__x86_64__)
#define CA_FIBER_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

#ifdef CA_FIBER_ASM_SWITCH
// ca_sim_fiber_switch(void** save_sp, void* load_sp): the register-only
// context switch. Pushes the System V callee-saved state (rbp, rbx,
// r12-r15, then MXCSR and the x87 control word in one 8-byte slot) onto the
// current stack, stores rsp to *save_sp, loads load_sp into rsp, and pops
// the same frame back off the other stack; `ret` resumes whoever saved it.
// Everything caller-saved is already dead across the call, so that is the
// whole context. Unlike glibc's swapcontext it never makes the
// rt_sigprocmask syscall: every fiber runs with its worker's signal mask.
//
// The `ret` lands on a different stack than the matching `call`, which a
// CET shadow stack would reject; src/sim/CMakeLists.txt compiles this file
// without the shadow-stack marking so no binary that links it opts in.
asm(R"(
  .text
  .p2align 4
  .globl ca_sim_fiber_switch
  .hidden ca_sim_fiber_switch
  .type ca_sim_fiber_switch, @function
ca_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size ca_sim_fiber_switch, .-ca_sim_fiber_switch
)");

extern "C" void ca_sim_fiber_switch(void** save_sp, void* load_sp);
#endif

namespace ca::sim {

namespace detail {

class Pool;

#ifdef CA_FIBER_ASM_SWITCH
/// A suspended execution context: the stack pointer of its saved frame.
struct Context {
  void* sp = nullptr;
};

inline void switch_context(Context& save, const Context& load) {
  ca_sim_fiber_switch(&save.sp, load.sp);
}

/// Seed `stack` so the first switch into `ctx` pops a frame that `ret`s
/// into entry() with the ABI's call alignment (rsp = 16n - 8 on entry).
/// Above the frame sits a 0 return address and rbp is seeded 0, so
/// backtraces end at entry() instead of walking off the stack.
inline void init_context(Context& ctx, void* stack, std::size_t size,
                         void (*entry)()) {
  auto top = reinterpret_cast<std::uintptr_t>(stack) + size;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* slot = reinterpret_cast<std::uint64_t*>(top);
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  // The fiber starts with its creator's floating-point control state, as a
  // getcontext-seeded ucontext would.
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));
  *--slot = 0;                                      // entry()'s return address
  *--slot = reinterpret_cast<std::uint64_t>(entry);  // popped by `ret`
  *--slot = 0;                                      // rbp
  for (int i = 0; i < 5; ++i) *--slot = 0;          // rbx, r12-r15
  *--slot = static_cast<std::uint64_t>(mxcsr) |
            (static_cast<std::uint64_t>(fpucw) << 32);
  ctx.sp = slot;
}
#else
/// Portable fallback for targets without the asm switch.
struct Context {
  ucontext_t uc{};
};

inline void switch_context(Context& save, const Context& load) {
  swapcontext(&save.uc, &load.uc);
}

inline void init_context(Context& ctx, void* stack, std::size_t size,
                         void (*entry)()) {
  getcontext(&ctx.uc);
  ctx.uc.uc_stack.ss_sp = stack;
  ctx.uc.uc_stack.ss_size = size;
  ctx.uc.uc_link = nullptr;
  makecontext(&ctx.uc, entry, 0);
}
#endif

/// Wake handshake states. A parked fiber is resumed exactly once no matter
/// how the notifier interleaves with the fiber's own switch-out:
///   kRunning -> worker CAS -> kParked        (normal park, after switch-out)
///   kRunning -> waker exchange -> kReady     (wake raced the switch-out:
///                                             the worker's CAS fails and THE
///                                             WORKER re-queues the fiber)
///   kParked  -> waker exchange -> kReady     (late wake: the waker queues it)
enum FiberState : int { kRunning = 0, kParked = 1, kReady = 2 };

/// The C++ runtime's per-thread exception state (the `__cxa_eh_globals`
/// layout of libstdc++ and libc++abi): the stack of exceptions whose
/// handlers are running and the count of exceptions in flight. It belongs
/// to the code that is running, not to the OS thread, so it moves with the
/// fiber: a fiber that parks inside a catch block and resumes on another
/// worker must still find its exception there for a `throw;`.
struct EhGlobals {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
#ifdef __ARM_EABI_UNWINDER__
  void* propagating_exceptions = nullptr;
#endif
};

/// A fiber stack: one mapping whose lowest page is a PROT_NONE guard and
/// whose `usable` bytes above it are the stack.
struct Stack {
  void* base = nullptr;  // mmap base: the guard page
  std::size_t usable = 0;
};

struct Fiber {
  Context ctx;
  EhGlobals eh;  // the fiber's exception state while it is switched out
  Pool* pool = nullptr;
  int rank = -1;
  const double* clock = nullptr;  // bound to obs::ThreadClock while running
  Stack stack;
  std::atomic<int> state{kReady};
  bool finished = false;
  Fiber* next = nullptr;          // TaskWaitQueue / free-list link
  Context* return_ctx = nullptr;  // resuming worker's context
#ifdef CA_TSAN_FIBERS
  void* tsan_fiber = nullptr;
  void* tsan_worker = nullptr;  // resuming worker's TSan fiber
#endif
#ifdef CA_ASAN_FIBERS
  void* asan_fake = nullptr;      // fiber's fake stack, saved across parks
  const void* from_lo = nullptr;  // resuming worker's stack bounds
  std::size_t from_size = 0;
#endif
};

namespace {

std::size_t page_size() {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// The fiber this thread is currently executing, or nullptr on a plain
/// thread. noinline so every call re-derives the TLS address: inside a fiber
/// a cached thread_local address would go stale when the fiber migrates to
/// another worker across a yield.
__attribute__((noinline)) Fiber*& tls_fiber() {
  static thread_local Fiber* current = nullptr;
  return current;
}

void fiber_trampoline();

/// Process-wide free list of fiber stacks. Mapping, guarding, faulting in
/// and unmapping a stack per fiber cost more host time than an empty
/// region's scheduling, so a finished fiber's stack goes back here and the
/// next TaskScheduler::run reuses it, guard page and touched pages intact.
/// Stacks match by exact size: CA_SIM_STACK_KB differs between clusters,
/// and a stack must never serve a request larger than itself. At most
/// kMaxStacks are kept (enough for a 1024-rank region); a release beyond
/// that unmaps.
class StackCache {
 public:
  static StackCache& instance() {
    static StackCache cache;
    return cache;
  }

  Stack acquire(std::size_t usable) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      // Newest first: back-to-back regions of one size hit the last entry.
      for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
        if (it->usable == usable) {
          const Stack s = *it;
          *it = free_.back();
          free_.pop_back();
          return s;
        }
      }
    }
    return map_stack(usable);
  }

  void release(const Stack& s) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (free_.size() < kMaxStacks) {
        free_.push_back(s);
        return;
      }
    }
    munmap(s.base, s.usable + page_size());
  }

 private:
  static constexpr std::size_t kMaxStacks = 1024;

  static Stack map_stack(std::size_t usable) {
    const std::size_t page = page_size();
    const std::size_t total = usable + page;  // +1 guard page, kept PROT_NONE
    void* base = mmap(nullptr, total, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      throw std::runtime_error("TaskScheduler: fiber stack mmap failed");
    }
    if (mprotect(static_cast<char*>(base) + page, usable,
                 PROT_READ | PROT_WRITE) != 0) {
      munmap(base, total);
      throw std::runtime_error("TaskScheduler: fiber stack mprotect failed");
    }
    return Stack{base, usable};
  }

  std::mutex mu_;
  std::vector<Stack> free_;
};

char* stack_lo(const Stack& s) {
  return static_cast<char*>(s.base) + page_size();
}

}  // namespace

/// One TaskScheduler::run invocation: the worker threads, the ready deque,
/// and the fibers' lifetime. Static entry points reach the pool through the
/// current fiber's back-pointer.
class Pool {
 public:
  Pool(int workers, std::size_t stack_bytes)
      : nworkers_(workers),
        stack_bytes_(stack_bytes),
        omp_team_(omp_team_per_rank(workers)) {}

  void run(int n, const std::function<void(int)>& body,
           const std::function<const double*(int)>& clock_of) {
    if (n <= 0) return;
    body_ = &body;
    live_ = n;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (int r = 0; r < n; ++r) {
        ready_.push_back(make_fiber(r, clock_of ? clock_of(r) : nullptr));
      }
    }
    // The calling thread would only wait in join(), so it is one of the
    // workers — unless it is itself a fiber, whose identity tls_fiber()
    // must keep.
    const bool caller_works = tls_fiber() == nullptr;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(nworkers_));
    for (int w = caller_works ? 1 : 0; w < nworkers_; ++w) {
      workers.emplace_back([this] {
        set_omp_team(omp_team_);
        worker_loop();
      });
    }
    if (caller_works) {
      const double* clock = obs::ThreadClock::current();
      const int team = omp_get_max_threads();
      set_omp_team(omp_team_);
      worker_loop();
      set_omp_team(team);
      obs::ThreadClock::bind(clock);
    }
    for (auto& t : workers) t.join();
  }

  void push_ready(Fiber* f) {
    std::lock_guard<std::mutex> lk(mu_);
    ready_.push_back(f);
    cv_.notify_one();
  }

  void run_body(Fiber* f) { (*body_)(f->rank); }

  /// Switch from the current fiber back to its worker. Called with no locks
  /// held; the worker completes the park handshake (or observes `finished`).
  void yield_current(Fiber* f) {
#ifdef CA_TSAN_FIBERS
    __tsan_switch_to_fiber(f->tsan_worker, 0);
#endif
#ifdef CA_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&f->asan_fake, f->from_lo, f->from_size);
#endif
    switch_context(f->ctx, *f->return_ctx);
    // Resumed — possibly on a different worker thread (resume() re-pointed
    // return_ctx / tsan_worker before switching us back in).
#ifdef CA_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(f->asan_fake, &f->from_lo, &f->from_size);
#endif
  }

 private:
  Fiber* make_fiber(int rank, const double* clock) {
    const std::size_t page = page_size();
    const Stack stack =
        StackCache::instance().acquire((stack_bytes_ + page - 1) / page * page);
    auto* f = new Fiber;
    f->pool = this;
    f->rank = rank;
    f->clock = clock;
    f->stack = stack;
#ifdef CA_TSAN_FIBERS
    f->tsan_fiber = __tsan_create_fiber(0);
#endif
    init_context(f->ctx, stack_lo(stack), stack.usable, &fiber_trampoline);
    return f;
  }

  void destroy_fiber(Fiber* f) {
#ifdef CA_TSAN_FIBERS
    __tsan_destroy_fiber(f->tsan_fiber);
#endif
#ifdef CA_ASAN_FIBERS
    // The fiber's last frames never returned, so their redzones are still
    // poisoned; clear them before the next fiber runs on this stack.
    __asan_unpoison_memory_region(stack_lo(f->stack), f->stack.usable);
#endif
    StackCache::instance().release(f->stack);
    delete f;
  }

  Fiber* pop_ready() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return done_ || !ready_.empty(); });
    if (ready_.empty()) return nullptr;  // done_: every fiber finished
    Fiber* f = ready_.front();
    ready_.pop_front();
    return f;
  }

  /// Switch into `f` on this worker thread and come back when it parks or
  /// finishes. The ThreadClock binding and the C++ exception state travel
  /// with the fiber (task-local): installed here on the way in, taken back
  /// on the way out, so traces, memory attribution and in-progress
  /// exception handling survive migration across workers.
  void resume(Fiber* f) {
    Context worker_ctx;
    f->return_ctx = &worker_ctx;
    f->state.store(kRunning, std::memory_order_relaxed);
    tls_fiber() = f;
    obs::ThreadClock::bind(f->clock);
    // This frame stays on this worker, so `eh` is this worker's slot both
    // before and after the switch.
    void* eh = abi::__cxa_get_globals();
    EhGlobals worker_eh;
    std::memcpy(&worker_eh, eh, sizeof(EhGlobals));
    std::memcpy(eh, &f->eh, sizeof(EhGlobals));
#ifdef CA_TSAN_FIBERS
    f->tsan_worker = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(f->tsan_fiber, 0);
#endif
#ifdef CA_ASAN_FIBERS
    void* worker_fake = nullptr;
    __sanitizer_start_switch_fiber(&worker_fake, stack_lo(f->stack),
                                   f->stack.usable);
#endif
    switch_context(worker_ctx, f->ctx);
#ifdef CA_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(worker_fake, nullptr, nullptr);
#endif
    std::memcpy(&f->eh, eh, sizeof(EhGlobals));
    std::memcpy(eh, &worker_eh, sizeof(EhGlobals));
    obs::ThreadClock::bind(nullptr);
    tls_fiber() = nullptr;
  }

  void worker_loop() {
    while (Fiber* f = pop_ready()) {
      resume(f);
      if (f->finished) {
        destroy_fiber(f);
        std::lock_guard<std::mutex> lk(mu_);
        if (--live_ == 0) {
          done_ = true;
          cv_.notify_all();
        }
      } else {
        // Complete the park handshake: the fiber enqueued itself on a wait
        // queue before switching out. If a waker already flipped it to
        // kReady, the wake happened mid-switch and re-queueing is our job.
        int expected = kRunning;
        if (!f->state.compare_exchange_strong(expected, kParked)) {
          push_ready(f);
        }
      }
    }
  }

  int nworkers_;
  std::size_t stack_bytes_;
  int omp_team_;
  const std::function<void(int)>* body_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Fiber*> ready_;
  int live_ = 0;
  bool done_ = false;
};

namespace {

/// First frame of every fiber. resume() published the fiber in tls_fiber()
/// just before switching in, which is how it learns who it is.
void fiber_trampoline() {
  Fiber* f = tls_fiber();
#ifdef CA_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &f->from_lo, &f->from_size);
#endif
  f->pool->run_body(f);
  f->finished = true;
#ifdef CA_TSAN_FIBERS
  __tsan_switch_to_fiber(f->tsan_worker, 0);
#endif
#ifdef CA_ASAN_FIBERS
  // nullptr slot: this fiber is dying, release its fake stack.
  __sanitizer_start_switch_fiber(nullptr, f->from_lo, f->from_size);
#endif
  switch_context(f->ctx, *f->return_ctx);  // never returns
  __builtin_unreachable();
}

#if defined(CA_ASAN_FIBERS) || defined(CA_TSAN_FIBERS)
constexpr std::size_t kDefaultStackBytes = 8u << 20;  // sanitizer redzones
#else
constexpr std::size_t kDefaultStackBytes = 1u << 20;
#endif
constexpr std::size_t kMinStackBytes = 64u << 10;

}  // namespace

}  // namespace detail

std::optional<SimBackend> parse_backend(const std::string& name) {
  if (name == "threads") return SimBackend::kThreads;
  if (name == "tasks") return SimBackend::kTasks;
  return std::nullopt;
}

int omp_team_per_rank(int concurrent) {
  // Once per process: omp_get_num_procs() asks the kernel for the affinity
  // mask, and cost-only regions are only microseconds long.
  static const int procs = omp_get_num_procs();
  return std::max(1, std::min(omp_get_max_threads(),
                              procs / std::max(1, concurrent)));
}

void set_omp_team(int team) {
  if (omp_get_max_threads() != team) omp_set_num_threads(team);
}

const char* backend_name(SimBackend b) {
  return b == SimBackend::kTasks ? "tasks" : "threads";
}

void TaskScheduler::run(int n, const std::function<void(int)>& body,
                        const std::function<const double*(int)>& clock_of,
                        const Options& opts) {
  if (n <= 0) return;
  int workers = opts.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  workers = std::min(workers, n);
  std::size_t stack =
      opts.stack_bytes > 0 ? opts.stack_bytes : detail::kDefaultStackBytes;
  if (stack < detail::kMinStackBytes) stack = detail::kMinStackBytes;
  detail::Pool pool(workers, stack);
  pool.run(n, body, clock_of);
}

bool TaskScheduler::on_fiber() { return detail::tls_fiber() != nullptr; }

void TaskScheduler::suspend(std::unique_lock<std::mutex>& lk,
                            TaskWaitQueue& q) {
  detail::Fiber* f = detail::tls_fiber();
  // Enqueue under the caller's mutex: a notifier must hold the same mutex to
  // change the predicate, so it cannot miss us once the state is observable.
  f->next = nullptr;
  if (q.tail_ != nullptr) {
    q.tail_->next = f;
  } else {
    q.head_ = f;
  }
  q.tail_ = f;
  lk.unlock();
  f->pool->yield_current(f);
  lk.lock();
}

void TaskScheduler::notify_queue(TaskWaitQueue& q) {
  detail::Fiber* f = q.head_;
  q.head_ = nullptr;
  q.tail_ = nullptr;
  while (f != nullptr) {
    detail::Fiber* next = f->next;
    f->next = nullptr;
    // kParked -> we own the re-queue. kRunning -> the fiber is still
    // switching out; its worker's CAS will fail and re-queue it instead.
    if (f->state.exchange(detail::kReady) == detail::kParked) {
      f->pool->push_ready(f);
    }
    f = next;
  }
}

}  // namespace ca::sim
