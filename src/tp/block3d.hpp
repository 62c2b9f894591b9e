#pragma once

// Full Transformer block under 3D tensor parallelism. Layout conventions
// follow Linear3D on the flattened (batch*seq, hidden) activation matrix,
// with the row dimension chunked along BATCH (so every device sees full
// sequences):
//   X layout on (i,j,k): (batch/l, seq, hidden/l^2)     rows chunk i
//                        (Linear3D::shard_input cuts it from the full tensor)
//   Y layout on (i,j,k): (batch/l^2, seq, hidden/l)     rows chunk i*l+k
// The block's external interface is X layout on both sides; internal
// sublayers alternate X->Y through the 3D linears and redistribute back with
// convert_3d_y_to_x (exactly the alternation the Colossal-AI 3D layers use).
// Requires batch % l^2 == 0, heads % l == 0, hidden % l^2 == 0.

#include <cmath>

#include "nn/layers.hpp"
#include "tp/linear3d.hpp"
#include "tp/sharded_layernorm.hpp"

namespace ca::tp {

/// Multi-head attention on 3D blocks: SUMMA-free 3D QKV projection with
/// per-chunk-permuted columns, local attention over the Y-layout batch
/// slice, Y->X redistribution, 3D output projection, and a final Y->X
/// redistribution so the residual stream stays in X layout.
class Attention3D : public nn::Module {
 public:
  Attention3D(const Env& env, std::string name, std::int64_t hidden,
              std::int64_t heads, std::uint64_t seed);

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    qkv_.collect_parameters(out);
    proj_.collect_parameters(out);
  }

 private:
  Env env_;
  std::int64_t hidden_;
  int l_;
  std::int64_t local_heads_;
  Linear3D qkv_;
  Linear3D proj_;
  nn::AttentionCore core_;
};

/// Pre-LN Transformer block with X-layout residual stream: LayerNorms are
/// ShardedLayerNorm::cube, the MLP is Mlp3D plus a final Y->X conversion.
class TransformerBlock3D : public nn::PreLNBlock {
 public:
  TransformerBlock3D(const Env& env, std::string name, std::int64_t hidden,
                     std::int64_t heads, std::int64_t ffn_hidden,
                     std::uint64_t seed);
};

}  // namespace ca::tp
