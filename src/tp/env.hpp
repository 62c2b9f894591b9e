#pragma once

#include <initializer_list>

#include "core/context.hpp"
#include "nn/module.hpp"
#include "sim/cluster.hpp"

namespace ca::tp {

/// Per-rank handle bundling everything a parallel layer needs: the parallel
/// context (groups), the caller's global rank, and its simulated device for
/// memory/compute accounting. Cheap to copy; created inside the SPMD region.
struct Env {
  core::ParallelContext* ctx = nullptr;
  int grank = 0;

  [[nodiscard]] sim::Device& dev() const {
    return ctx->backend().cluster().device(grank);
  }
  [[nodiscard]] sim::MemoryTracker& mem() const { return dev().mem(); }
  [[nodiscard]] core::ParallelContext& context() const { return *ctx; }
};

/// Simulated bytes of `params` and their gradients, fp32 each; null entries
/// (an absent bias) count nothing. A layer charges them for its whole life
/// through a `sim::ScopedAlloc` member declared after its parameters.
[[nodiscard]] inline std::int64_t param_footprint(
    std::initializer_list<const nn::Parameter*> params) {
  std::int64_t numel = 0;
  for (const nn::Parameter* p : params) numel += p != nullptr ? p->numel() : 0;
  return 2 * numel * static_cast<std::int64_t>(sizeof(float));
}

/// Tracks the activation bytes a layer holds between forward and backward,
/// so range tests observe the same peak-memory shape the paper measures.
class ActivationTracker {
 public:
  explicit ActivationTracker(sim::MemoryTracker& mem) : mem_(&mem) {}
  ~ActivationTracker() { release_all(); }
  ActivationTracker(const ActivationTracker&) = delete;
  ActivationTracker& operator=(const ActivationTracker&) = delete;

  /// Account `bytes` as held until release_all (saved tensors, outputs).
  void hold(std::int64_t bytes) {
    mem_->alloc(bytes);
    held_ += bytes;
  }
  /// Free everything held (called from backward).
  void release_all() {
    mem_->free(held_);
    held_ = 0;
  }
  [[nodiscard]] std::int64_t held() const { return held_; }

 private:
  sim::MemoryTracker* mem_;
  std::int64_t held_ = 0;
};

}  // namespace ca::tp
