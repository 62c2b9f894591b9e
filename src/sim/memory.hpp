#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

namespace ca::sim {

/// Thrown when a tracked allocation exceeds device (or host) capacity. The
/// paper's range tests (Figs 8 and 12) grow batch size / sequence length
/// until "the out-of-memory problem occurs" — this exception is that event.
/// what() names the pool and (for per-device pools) the rank, and states
/// requested vs available bytes, so OOMs at scale are attributable without a
/// debugger.
class OomError : public std::runtime_error {
 public:
  OomError(std::string pool, int rank, std::int64_t requested,
           std::int64_t in_use, std::int64_t capacity)
      : std::runtime_error(
            "OOM on pool '" + pool + "'" +
            (rank >= 0 ? " (rank " + std::to_string(rank) + ")" : "") +
            ": requested " + std::to_string(requested) + " B but only " +
            std::to_string(capacity - in_use) + " B available (" +
            std::to_string(in_use) + "/" + std::to_string(capacity) +
            " B in use)"),
        pool_(std::move(pool)),
        rank_(rank),
        requested_(requested),
        in_use_(in_use),
        capacity_(capacity) {}

  /// Pool name ("gpu3", "host", "nvme", ...).
  [[nodiscard]] const std::string& pool() const { return pool_; }
  /// Owning rank for per-device pools; -1 for shared pools (host, NVMe).
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] std::int64_t requested() const { return requested_; }
  [[nodiscard]] std::int64_t in_use() const { return in_use_; }
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t available() const { return capacity_ - in_use_; }

 private:
  std::string pool_;
  int rank_;
  std::int64_t requested_, in_use_, capacity_;
};

/// Byte-granular allocation accounting for one memory pool (a simulated GPU
/// or the host). Mirrors `torch.cuda.max_memory_allocated` semantics: the
/// experiments read `peak()` where the paper reads max allocated CUDA memory.
class MemoryTracker {
 public:
  /// `capacity <= 0` means unlimited (no OOM enforcement). `rank` labels
  /// per-device pools in OomError; leave -1 for shared pools. A pool every
  /// rank thread allocates from (host, NVMe) passes `shared`, which
  /// serializes its accounting; a per-device pool has one writer and takes
  /// no lock.
  explicit MemoryTracker(std::string name = "mem", std::int64_t capacity = 0,
                         int rank = -1, bool shared = false)
      : name_(std::move(name)),
        capacity_(capacity),
        rank_(rank),
        lock_(shared ? std::make_unique<std::mutex>() : nullptr) {}

  /// Record an allocation; throws OomError if it would exceed capacity.
  void alloc(std::int64_t bytes) {
    locked([&] {
      if (capacity_ > 0 && current_ + bytes > capacity_) {
        throw OomError(name_, rank_, bytes, current_, capacity_);
      }
      current_ += bytes;
      peak_ = std::max(peak_, current_);
      if (sample_hook_) sample_hook_(current_);
    });
  }

  /// Record a free. Freeing more than is in use clamps at zero (mirrors the
  /// tolerance of real allocators for double-accounting at shutdown).
  void free(std::int64_t bytes) {
    locked([&] {
      current_ = std::max<std::int64_t>(0, current_ - bytes);
      if (sample_hook_) sample_hook_(current_);
    });
  }

  [[nodiscard]] std::int64_t current() const { return current_; }
  [[nodiscard]] std::int64_t peak() const { return peak_; }
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t available() const {
    return capacity_ > 0 ? capacity_ - current_ : std::int64_t{1} << 62;
  }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Forget everything (new experiment).
  void reset() {
    locked([&] {
      current_ = 0;
      peak_ = 0;
    });
  }

  /// Optional sampler fired with the new `current()` after every alloc/free —
  /// the tracer uses it to build per-pool memory timelines. Disabled (the
  /// default) it costs one branch per accounting call; pass nullptr to
  /// detach. The hook must not call back into this tracker.
  using SampleHook = std::function<void(std::int64_t current)>;
  void set_sample_hook(SampleHook hook) { sample_hook_ = std::move(hook); }

 private:
  /// Run `f` under the shared pool's lock; an unshared pool runs it bare.
  template <class F>
  void locked(F f) {
    if (!lock_) return f();
    const std::lock_guard guard(*lock_);
    f();
  }

  std::string name_;
  std::int64_t capacity_;
  int rank_ = -1;
  std::unique_ptr<std::mutex> lock_;
  std::int64_t current_ = 0;
  std::int64_t peak_ = 0;
  SampleHook sample_hook_;
};

/// RAII allocation: tracks `bytes` for its lifetime.
class ScopedAlloc {
 public:
  ScopedAlloc(MemoryTracker& mem, std::int64_t bytes) : mem_(&mem), bytes_(bytes) {
    mem_->alloc(bytes_);
  }
  ~ScopedAlloc() {
    if (mem_ != nullptr) mem_->free(bytes_);
  }
  ScopedAlloc(ScopedAlloc&& other) noexcept : mem_(other.mem_), bytes_(other.bytes_) {
    other.mem_ = nullptr;
  }
  ScopedAlloc& operator=(ScopedAlloc&&) = delete;
  ScopedAlloc(const ScopedAlloc&) = delete;
  ScopedAlloc& operator=(const ScopedAlloc&) = delete;

  [[nodiscard]] std::int64_t bytes() const { return bytes_; }

 private:
  MemoryTracker* mem_;
  std::int64_t bytes_;
};

}  // namespace ca::sim
