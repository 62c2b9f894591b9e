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

namespace detail {
/// Rearrange a fused (h, 3h) QKV weight so column chunk c of the new layout
/// is [Wq chunk c | Wk chunk c | Wv chunk c] — what the grid block's local
/// attention needs from its SUMMA output.
inline tensor::Tensor permute_qkv_columns(const tensor::Tensor& full, int q) {
  namespace t = ca::tensor;
  const std::int64_t h = full.dim(0);
  auto wq = t::narrow(full, 1, 0, h);
  auto wk = t::narrow(full, 1, h, h);
  auto wv = t::narrow(full, 1, 2 * h, h);
  std::vector<t::Tensor> cols;
  for (int c = 0; c < q; ++c) {
    cols.push_back(t::chunk(wq, 1, q, c));
    cols.push_back(t::chunk(wk, 1, q, c));
    cols.push_back(t::chunk(wv, 1, q, c));
  }
  return t::cat(cols, 1);
}
}  // namespace detail

/// Multi-head self-attention on grid blocks: SUMMA QKV projection (columns
/// permuted per-chunk so each block holds its heads' q/k/v), local attention
/// over the full sequence of the local batch slice, SUMMA output projection.
/// Requires batch % (d*q) == 0 and heads % q == 0.
class GridAttention : public nn::Module {
 public:
  GridAttention(const Env& env, std::string name, std::int64_t hidden,
                std::int64_t heads, std::uint64_t seed)
      : env_(env),
        local_heads_(heads / env.ctx->grid_side()),
        qkv_(env, name + ".qkv",
             detail::permute_qkv_columns(
                 tensor::randn(tensor::Shape{hidden, 3 * hidden}, seed, 0.0f,
                               1.0f / std::sqrt(static_cast<float>(hidden))),
                 env.ctx->grid_side())),
        proj_(env, name + ".proj", hidden, hidden, seed + 1) {
    assert(heads % env.ctx->grid_side() == 0 && hidden % heads == 0);
    // Column chunk c of the permuted weight is [Wq_c | Wk_c | Wv_c]: chunk c
    // of each of the serial weight's three sections, so checkpoints store
    // the serial [q|k|v] form.
    qkv_.weight().shard->col_sections = 3;
    qkv_.bias()->shard->col_sections = 3;
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
