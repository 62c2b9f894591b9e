#pragma once

#include <cassert>
#include <memory>

#include "nn/layers.hpp"
#include "tp/env.hpp"

namespace ca::tp {

/// The multi-head self-attention the grid (2D, 2.5D) and the cube (3D)
/// share: the layout's fused [q|k|v] projection, whose output holds the q, k
/// and v sections of this rank's heads, the shared nn::AttentionCore over
/// those heads (charged as the core's FLOPs), and the layout's output
/// projection. The heads split over the layout's side
/// (ParallelContext::grid_side). Layout attentions are thin constructors
/// over it; parameters are collected in the order qkv, proj.
class AttentionBody : public nn::Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x) override {
    auto ctx =
        core_.forward(nn::split_qkv(parts_.qkv->forward(x), local_heads_));
    env_.dev().compute_fp32(core_.forward_flops());
    return parts_.proj->forward(nn::merge_heads(ctx, local_heads_));
  }

  tensor::Tensor backward(const tensor::Tensor& dy) override {
    auto dqkv = core_.backward(
        nn::split_heads(parts_.proj->backward(dy), local_heads_));
    env_.dev().compute_fp32(2.0 * core_.forward_flops());
    return parts_.qkv->backward(nn::merge_qkv(dqkv, local_heads_));
  }

  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    parts_.qkv->collect_parameters(out);
    parts_.proj->collect_parameters(out);
  }

 protected:
  struct Parts {
    std::unique_ptr<nn::Module> qkv, proj;
  };
  /// Pass a braced Parts so the projections construct left to right.
  AttentionBody(const Env& env, std::int64_t heads, Parts parts)
      : env_(env),
        local_heads_(heads / env.ctx->grid_side()),
        parts_(std::move(parts)) {
    assert(heads % env.ctx->grid_side() == 0);
  }

 private:
  Env env_;
  std::int64_t local_heads_;
  Parts parts_;
  nn::AttentionCore core_;
};

}  // namespace ca::tp
