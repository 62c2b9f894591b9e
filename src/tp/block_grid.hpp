#pragma once

// Full Transformer blocks for the grid-based tensor-parallel modes (2D and
// 2.5D) — the layers Colossal-AI provides so ViT/BERT/GPT run under advanced
// tensor parallelism, not just MLP stacks. One implementation serves both:
// 2D is the 2.5D grid at depth 1 (d = ParallelContext::depth()).
//
// Activation layout: a (batch, seq, hidden) tensor is partitioned with the
// BATCH dimension over the grid rows (and depth layers) and the HIDDEN
// dimension over the grid columns:
//     x block on (dd, r, c): (batch/(d*q), seq, hidden/q)
// (Linear2p5D::shard_activation cuts it from the full tensor.)
// Every device therefore sees full sequences for its batch slice and full
// head_dim for its heads slice, so scaled-dot-product attention is local;
// the linear projections run SUMMA over the same blocks; LayerNorm assembles
// its per-token statistics with one small row-group all-reduce
// (ShardedLayerNorm::grid).

#include <cmath>

#include "nn/layers.hpp"
#include "tp/linear2p5d.hpp"
#include "tp/sharded_layernorm.hpp"

namespace ca::tp {

/// Multi-head self-attention on grid blocks: SUMMA QKV projection (the fused
/// weight in three column sections, so each block holds its heads' q/k/v),
/// local attention over the full sequence of the local batch slice, SUMMA
/// output projection.
/// Requires batch % (d*q) == 0 and heads % q == 0.
class GridAttention : public nn::Module {
 public:
  GridAttention(const Env& env, std::string name, std::int64_t hidden,
                std::int64_t heads, std::uint64_t seed)
      : env_(env),
        local_heads_(heads / env.ctx->grid_side()),
        // Column block c of the [q|k|v] weight's three sections is
        // [Wq_c | Wk_c | Wv_c]: the heads of grid column c.
        qkv_(env, name + ".qkv",
             tensor::randn(tensor::Shape{hidden, 3 * hidden}, seed, 0.0f,
                           1.0f / std::sqrt(static_cast<float>(hidden))),
             /*with_bias=*/true, /*col_sections=*/3),
        proj_(env, name + ".proj", hidden, hidden, seed + 1) {
    assert(heads % env.ctx->grid_side() == 0 && hidden % heads == 0);
  }

  tensor::Tensor forward(const tensor::Tensor& x) override {
    const std::int64_t b = x.dim(0), s = x.dim(1);
    // (b, s, 3h/q) = [q_c | k_c | v_c]
    auto ctx = core_.forward(nn::split_qkv(qkv_.forward(x), local_heads_));
    env_.dev().compute_fp32(4.0 * static_cast<double>(b) * local_heads_ * s *
                            s * ctx.dim(2));
    return proj_.forward(nn::merge_heads(ctx, local_heads_));
  }

  tensor::Tensor backward(const tensor::Tensor& dy) override {
    const std::int64_t b = dy.dim(0), s = dy.dim(1);
    auto dqkv = core_.backward(
        nn::split_heads(proj_.backward(dy), local_heads_));
    env_.dev().compute_fp32(8.0 * static_cast<double>(b) * local_heads_ * s *
                            s * dqkv.q.dim(2));
    return qkv_.backward(nn::merge_qkv(dqkv, local_heads_));
  }

  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    qkv_.collect_parameters(out);
    proj_.collect_parameters(out);
  }

 private:
  Env env_;
  std::int64_t local_heads_;
  Linear2p5D qkv_;
  Linear2p5D proj_;
  nn::AttentionCore core_;
};

/// Pre-LN Transformer block on grid blocks.
class GridTransformerBlock : public nn::PreLNBlock {
 public:
  GridTransformerBlock(const Env& env, std::string name, std::int64_t hidden,
                       std::int64_t heads, std::int64_t ffn_hidden,
                       std::uint64_t seed)
      : PreLNBlock({ShardedLayerNorm::grid(env, name + ".ln1", hidden),
                    std::make_unique<GridAttention>(env, name + ".attn",
                                                    hidden, heads, seed),
                    ShardedLayerNorm::grid(env, name + ".ln2", hidden),
                    std::make_unique<Mlp2p5D>(env, name + ".mlp", hidden,
                                              ffn_hidden, seed + 100)}) {}
};

}  // namespace ca::tp
