#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ca::obs {

/// What a span's time was spent on. Mirrors the lanes of the paper's
/// compute-vs-communication breakdowns (Figs 6-7): kCompute is device math,
/// kComm is collective/p2p traffic, kMemcpy is host<->device (or NVMe)
/// staging, kOptimizer is the parameter update, kMarker is a named phase
/// annotation (engine step, pipeline micro-batch) that overlaps the others,
/// kFault is injected-fault activity (watchdog waits, retry backoff,
/// NaN-skipped steps) so recovery cost is visible as its own lane.
enum class Category : std::uint8_t {
  kCompute = 0,
  kComm,
  kMemcpy,
  kOptimizer,
  kIdle,
  kMarker,
  kFault,
};

inline constexpr int kNumCategories = 7;

[[nodiscard]] constexpr const char* category_name(Category c) {
  switch (c) {
    case Category::kCompute: return "compute";
    case Category::kComm: return "comm";
    case Category::kMemcpy: return "memcpy";
    case Category::kOptimizer: return "optimizer";
    case Category::kIdle: return "idle";
    case Category::kMarker: return "phase";
    case Category::kFault: return "fault";
  }
  return "?";
}

/// One closed interval of simulated device time. All stamps are *simulated*
/// seconds (the device's logical clock), never wall time: the tracer shows
/// where modeled time goes, exactly like the paper's breakdown figures.
struct TraceEvent {
  std::string name;          ///< op / group / phase label
  Category cat = Category::kCompute;
  double t0 = 0.0;           ///< begin (simulated seconds)
  double t1 = 0.0;           ///< end   (simulated seconds)
  /// When the op was *issued* (async collectives: the deferred-issue clock;
  /// pre-posted recvs: the post clock). t0 >= t_issue, and t0 - t_issue is
  /// the queueing delay; comm fully hidden under compute has t1 <= the
  /// issuing rank's clock at wait time.
  double t_issue = 0.0;
  std::int64_t bytes = 0;    ///< payload (comm / memcpy), 0 otherwise
  double flops = 0.0;        ///< modeled FLOPs (compute), 0 otherwise
  /// Comm only: the latency (alpha) share of t1 - t0; the rest is the
  /// bandwidth (beta) term of the alpha-beta cost model.
  double alpha = 0.0;
  /// Comm only: the collective algorithm behind this span ("chunked",
  /// "ring", "hierarchical", "single_root"); empty for non-collective spans.
  /// Kept out of the span name so report grouping ("group.op") is unchanged.
  std::string algo;
  /// Comm only: the wire element type the payload crossed the interconnect
  /// in ("f32", "f16", "bf16"); empty (treated as f32) for non-collective
  /// spans. Lets the report split comm volume per precision.
  std::string dtype;
};

/// Append-only per-rank event sink. Owned by the Tracer; one writer at a
/// time touches a given buffer — its own rank, or a cost-replay flush's
/// evaluator while that rank is parked at the flush's barrier — so the hot
/// path takes no lock. The buffer is bound to its device's logical clock so RAII spans
/// can stamp begin/end without knowing about sim::Device.
class TraceBuffer {
 public:
  /// Bind the simulated clock this buffer stamps from. The pointee must
  /// outlive the buffer (the Cluster owns both) and is only read by this
  /// buffer's current writer.
  void bind_clock(const double* clock) { clock_ = clock; }
  [[nodiscard]] double now() const { return clock_ != nullptr ? *clock_ : 0.0; }

  void add(TraceEvent e) { events_.push_back(std::move(e)); }

  /// Memory-timeline sample for this rank's device pool (current bytes at
  /// the current simulated clock).
  void mem_sample(std::int64_t current) { mem_.emplace_back(now(), current); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] const std::vector<std::pair<double, std::int64_t>>&
  mem_timeline() const {
    return mem_;
  }

  void clear() {
    events_.clear();
    mem_.clear();
  }

 private:
  const double* clock_ = nullptr;
  std::vector<TraceEvent> events_;
  std::vector<std::pair<double, std::int64_t>> mem_;
};

/// RAII span over a TraceBuffer: records [construction clock, destruction
/// clock) under the given category. A default-constructed or nullptr-buffer
/// span is inert — emit points pass the device's buffer pointer directly, so
/// a disabled tracer costs exactly the one nullptr test.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TraceBuffer* buf, Category cat, std::string name,
            std::int64_t bytes = 0, double flops = 0.0)
      : buf_(buf) {
    if (buf_ == nullptr) return;
    ev_.name = std::move(name);
    ev_.cat = cat;
    ev_.bytes = bytes;
    ev_.flops = flops;
    ev_.t0 = buf_->now();
  }
  ~TraceSpan() { finish(); }

  TraceSpan(TraceSpan&& other) noexcept
      : buf_(other.buf_), ev_(std::move(other.ev_)) {
    other.buf_ = nullptr;
  }
  TraceSpan& operator=(TraceSpan&& other) noexcept {
    if (this != &other) {
      finish();
      buf_ = other.buf_;
      ev_ = std::move(other.ev_);
      other.buf_ = nullptr;
    }
    return *this;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Close the span early (idempotent; the destructor is then a no-op).
  void finish() {
    if (buf_ == nullptr) return;
    ev_.t1 = buf_->now();
    ev_.t_issue = ev_.t0;
    buf_->add(std::move(ev_));
    buf_ = nullptr;
  }

 private:
  TraceBuffer* buf_ = nullptr;
  TraceEvent ev_;
};

/// Per-task registration of the running rank's simulated clock, so samplers
/// on *shared* pools (host, NVMe — allocated from many ranks) can stamp
/// samples with the allocating rank's device time without reading another
/// rank's clock. The slot is physically thread-local but logically
/// task-local: the threads backend binds it once per rank thread
/// (Cluster::run), while the tasks backend rebinds it on every fiber
/// switch-in/out (TaskScheduler::resume), so attribution follows a rank
/// across worker threads. Each access reads its own thread's slot only, so
/// it is race-free.
class ThreadClock {
 public:
  static void bind(const double* clock) { slot() = clock; }
  /// The currently bound clock (nullptr outside an SPMD rank context).
  [[nodiscard]] static const double* current() { return slot(); }
  [[nodiscard]] static double now() {
    const double* clock = slot();
    return clock != nullptr ? *clock : 0.0;
  }

 private:
  // Function-local so the TLS slot is defined (and guard-initialised) in
  // every TU that uses it; an extern class-static thread_local reaches the
  // slot through GCC's TLS wrapper, which UBSan misreads as a null store.
  static const double*& slot() {
    static thread_local const double* clock = nullptr;
    return clock;
  }
};

/// The per-cluster trace store: one lock-free TraceBuffer per rank plus
/// mutex-guarded timelines for the shared memory pools. Created by
/// Cluster::enable_tracing(); emit points reach their rank's buffer through
/// Device::trace(), which is nullptr while tracing is off.
class Tracer {
 public:
  explicit Tracer(int world) : bufs_(static_cast<std::size_t>(world)) {}

  [[nodiscard]] int world() const { return static_cast<int>(bufs_.size()); }
  [[nodiscard]] TraceBuffer& rank(int r) {
    return bufs_.at(static_cast<std::size_t>(r));
  }
  [[nodiscard]] const TraceBuffer& rank(int r) const {
    return bufs_.at(static_cast<std::size_t>(r));
  }

  /// Memory-timeline sample for a shared pool (host / nvme). Called from
  /// rank threads concurrently; the mutex is acceptable because shared-pool
  /// allocation is not a hot path (chunk moves, optimizer-state placement).
  void pool_sample(const std::string& pool, double t, std::int64_t current) {
    std::scoped_lock lock(pool_mu_);
    pools_[pool].emplace_back(t, current);
  }

  using Timeline = std::vector<std::pair<double, std::int64_t>>;
  /// Shared-pool timelines. Call only outside the SPMD region.
  [[nodiscard]] const std::map<std::string, Timeline>& pool_timelines() const {
    return pools_;
  }

  /// Drop all recorded events and samples (new measurement window).
  void clear() {
    for (auto& b : bufs_) b.clear();
    std::scoped_lock lock(pool_mu_);
    pools_.clear();
  }

 private:
  std::vector<TraceBuffer> bufs_;
  std::mutex pool_mu_;
  std::map<std::string, Timeline> pools_;
};

}  // namespace ca::obs
