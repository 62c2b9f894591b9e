#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "engine/grad_bucket.hpp"
#include "tensor/dtype.hpp"
#include "nn/module.hpp"
#include "optim/optimizer.hpp"
#include "tp/env.hpp"

namespace ca::engine {

/// The execution engine behind `colossalai.initialize` (Listing 1): wraps a
/// model, an optimizer and a criterion behind the five-call training loop
///
///   engine.zero_grad();
///   auto out  = engine.forward(x);
///   auto loss = engine.criterion(out, labels);
///   engine.backward();
///   engine.step();
///
/// step() synchronizes gradients over the data-parallel group (averaged)
/// before the optimizer update, so plain data parallelism works out of the
/// box and composes with the tensor-parallel layers inside the model.
///
/// By default gradients sync through size-capped flat buckets whose async
/// all-reduces are issued from the model's grad-ready hook during backward —
/// communication overlaps backward compute (see GradBucketer). The serial
/// mode keeps one blocking all-reduce per parameter (averaging fused into
/// the reduce); use it with gradient accumulation (multiple backward calls
/// per step), which the eager bucketed path does not support.
class Engine {
 public:
  struct Options {
    enum class GradSync { kBucketed, kSerial };
    GradSync grad_sync = GradSync::kBucketed;
    /// Bucket payload cap (bytes of float32 gradient per bucket).
    std::int64_t bucket_bytes = std::int64_t{1} << 20;
    /// Scan synced gradients for NaN/Inf each step and skip the optimizer
    /// update on EVERY rank when any rank saw one (the AMP loss-scale-skip
    /// contract). Forced on while a fault injector is installed; otherwise
    /// the guard costs one predictable branch.
    bool nan_guard = false;
    /// Wire element type of data-parallel gradient sync (bucketed and
    /// serial). Unset (the default) takes the `comm_dtype` knob
    /// (ParallelContext::comm_dtype()); set it to pin a dtype regardless of
    /// the environment. Half wires move 2-byte gradients with fp32
    /// accumulation; the NaN guard and loss-scaler skip still fire because
    /// the conversions preserve NaN.
    std::optional<tensor::Dtype> comm_dtype;
  };

  Engine(const tp::Env& env, nn::Module& model,
         std::unique_ptr<optim::Optimizer> optimizer);
  Engine(const tp::Env& env, nn::Module& model,
         std::unique_ptr<optim::Optimizer> optimizer, Options options);

  void zero_grad();

  tensor::Tensor forward(const tensor::Tensor& x);

  /// Mean cross-entropy against integer labels; stores dL/dlogits for
  /// backward(). `logits` must be the tensor returned by forward().
  float criterion(const tensor::Tensor& logits,
                  std::span<const std::int64_t> labels);

  /// Backpropagate from the stored criterion gradient.
  void backward();
  /// Backpropagate an explicit output gradient instead.
  void backward_from(const tensor::Tensor& dy);

  /// Data-parallel gradient sync + optimizer step.
  void step();

  [[nodiscard]] nn::Module& model() { return model_; }
  [[nodiscard]] optim::Optimizer& optimizer() { return *optimizer_; }

  /// Steps executed so far (each step() call, skipped or not, counts one).
  [[nodiscard]] std::int64_t steps_taken() const { return step_count_; }
  /// Steps whose optimizer update was skipped by the NaN guard.
  [[nodiscard]] std::int64_t skipped_steps() const { return skipped_steps_; }
  /// Resume support: continue global-step numbering from a checkpoint.
  void set_step_count(std::int64_t step) { step_count_ = step; }

 private:
  tp::Env env_;
  nn::Module& model_;
  std::unique_ptr<optim::Optimizer> optimizer_;
  Options options_;
  tensor::Dtype wire_ = tensor::Dtype::kF32;  // resolved grad-sync wire dtype
  std::unique_ptr<GradBucketer> bucketer_;  // null when serial or dp == 1
  tensor::Tensor dlogits_;
  bool has_dlogits_ = false;
  std::int64_t step_count_ = 0;
  std::int64_t skipped_steps_ = 0;
  // Simulated compute seconds accumulated by forward()/backward() since the
  // last step() — flushed into the per-step metric series (metrics on only).
  double fwd_accum_s_ = 0.0;
  double bwd_accum_s_ = 0.0;
};

/// The C++ analogue of `colossalai.initialize`: bundle a model + optimizer
/// into an Engine for this rank.
inline std::unique_ptr<Engine> initialize(
    const tp::Env& env, nn::Module& model,
    std::unique_ptr<optim::Optimizer> optimizer,
    Engine::Options options = {}) {
  return std::make_unique<Engine>(env, model, std::move(optimizer), options);
}

}  // namespace ca::engine
