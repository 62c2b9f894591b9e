#pragma once

#include <memory>

#include "engine/numeric_guard.hpp"
#include "nn/module.hpp"
#include "zero/zero_optimizer.hpp"

namespace ca::engine {

/// The Listing-1 engine with ZeRO underneath (the C++ analogue of
/// `colossalai.zero.initialize`): the same five-call loop, but parameters /
/// gradients / optimizer states are partitioned over the data-parallel group
/// per the configured stage, and (stage 3) full parameters exist only inside
/// the forward/backward window.
class ZeroEngine {
 public:
  ZeroEngine(const tp::Env& env, nn::Module& model,
             optim::Adam::Hyper hyper, int stage)
      : env_(env),
        model_(model),
        opt_(env, env.ctx->data_group(env.grank), model.parameters(), hyper,
             stage) {}

  void zero_grad() {
    // stage 3 recreates gradient buffers at gather time; earlier stages
    // zero in place
    if (opt_.stage() != 3) opt_.zero_grad();
    has_dlogits_ = false;
  }

  tensor::Tensor forward(const tensor::Tensor& x) {
    opt_.gather_params();
    return model_.forward(x);
  }

  float criterion(const tensor::Tensor& logits,
                  std::span<const std::int64_t> labels) {
    const float loss = tensor::cross_entropy(logits, labels, dlogits_);
    has_dlogits_ = true;
    return loss;
  }

  void backward() {
    assert(has_dlogits_);
    model_.backward(dlogits_);
    has_dlogits_ = false;
  }

  /// ZeRO step: grad sync per stage + sharded update (+ release of the full
  /// parameters for stage 3 — they are re-gathered by the next forward).
  ///
  /// The NaN guard runs BEFORE the sync: ZeRO reduces gradients inside
  /// opt_.step(), so a corrupted local gradient must be caught pre-reduce or
  /// the NaN would spread into every rank's shard. The guarded skip is
  /// symmetric (consensus all-reduce), so no rank enters the step's
  /// collectives alone.
  void step() {
    const sim::FaultInjector* fi = env_.dev().fault();
    const std::int64_t step = step_count_++;
    if (fi != nullptr) fi->on_step(env_.grank, step, env_.dev().clock());
    if (skip_nonfinite_step(env_, model_.parameters(), step, nan_guard_,
                            skipped_steps_, "zero.nan_skip")) {
      opt_.release_params();
      return;
    }
    opt_.step();
    opt_.release_params();
  }

  [[nodiscard]] zero::ZeroOptimizer& optimizer() { return opt_; }
  [[nodiscard]] std::int64_t steps_taken() const { return step_count_; }
  [[nodiscard]] std::int64_t skipped_steps() const { return skipped_steps_; }
  void set_step_count(std::int64_t step) { step_count_ = step; }
  void set_nan_guard(bool on) { nan_guard_ = on; }

 private:
  tp::Env env_;
  nn::Module& model_;
  zero::ZeroOptimizer opt_;
  tensor::Tensor dlogits_;
  bool has_dlogits_ = false;
  bool nan_guard_ = false;
  std::int64_t step_count_ = 0;
  std::int64_t skipped_steps_ = 0;
};

}  // namespace ca::engine
