#pragma once

#include <iosfwd>
#include <memory>
#include <optional>

#include "collective/group.hpp"
#include "nn/module.hpp"
#include "optim/optimizer.hpp"
#include "tp/env.hpp"
#include "zero/sharded_tensor.hpp"

namespace ca::zero {

/// Zero Redundancy Optimizer over a data-parallel group — the DeepSpeed ZeRO
/// scheme re-implemented on the unified sharded-tensor interface:
///
///  * stage 1 — optimizer states sharded: grads all-reduced, each rank
///    Adam-updates only its shard, updated parameters all-gathered.
///  * stage 2 — + gradients sharded: reduce-scatter instead of all-reduce.
///  * stage 3 — + parameters sharded: full values exist only between
///    gather_params() and release_params() around forward/backward.
///
/// All methods are SPMD over the group. Training is numerically identical to
/// serial Adam on the summed/averaged gradient, which test_zero verifies.
class ZeroOptimizer {
 public:
  /// `wire` is the element type gradient sync (all-reduce / reduce-scatter)
  /// and parameter reconstruction (all-gather) move over the interconnect;
  /// unset takes the `comm_dtype` knob via the context.
  /// Adam always updates the fp32 master shards, and save_state/load_state
  /// checkpoint traffic stays exact fp32 regardless (CACKPT01 bit-identical
  /// re-sharding is wire-dtype-independent).
  ZeroOptimizer(const tp::Env& env, collective::Group& group,
                std::vector<nn::Parameter*> params, optim::Adam::Hyper hyper,
                int stage, bool average_grads = true,
                std::optional<tensor::Dtype> wire = std::nullopt);

  /// Stage 3: materialize full parameter values (all-gather) into the
  /// module's Parameters and zero fresh gradient buffers. No-op otherwise.
  void gather_params();
  /// Stage 3: drop the full values and gradient buffers. No-op otherwise.
  void release_params();

  /// Synchronize gradients per the stage, update the local shards, and (for
  /// stages 1-2) all-gather the updated parameters back into the module.
  void step();

  void zero_grad() {
    for (nn::Parameter* p : params_) p->grad.fill(0.0f);
  }

  [[nodiscard]] int stage() const { return stage_; }
  [[nodiscard]] std::int64_t steps_taken() const { return t_; }

  /// Serialize full (unsharded) state: every member all-gathers the
  /// master/m/v shards and writes the same world-size-agnostic bytes, so a
  /// checkpoint taken at one DP width restores at another. SPMD — every
  /// group member must call (only one stream need go to a real file).
  void save_state(std::ostream& os);
  /// Restore from full-form state, slicing each tensor by THIS group's
  /// shard layout (the shrunk-cluster re-sharding path). SPMD — all ranks
  /// read the same bytes, and stages 1-2 re-gather the restored parameter
  /// values into the module.
  void load_state(std::istream& is);

  /// Per-rank model-data bytes (fp32 params/grads/moments with the stage's
  /// sharding) — the redundancy-elimination effect ZeRO exists for.
  [[nodiscard]] std::int64_t model_state_bytes() const;

 private:
  struct ParamShard {
    std::int64_t padded = 0;        // wire chunk size
    tensor::Tensor master;          // (padded) fp32 master shard
    tensor::Tensor m, v;            // Adam moments, shard-sized
    std::unique_ptr<ShardedTensor> sharded;  // stage 3 storage
  };

  void adam_update(ParamShard& s, const tensor::Tensor& grad_shard);

  tp::Env env_;
  collective::Group& group_;
  std::vector<nn::Parameter*> params_;
  optim::Adam::Hyper hyper_;
  int stage_;
  bool average_;
  tensor::Dtype wire_ = tensor::Dtype::kF32;
  std::int64_t t_ = 0;
  ShardingStrategy strategy_;
  std::vector<ParamShard> shards_;
};

}  // namespace ca::zero
