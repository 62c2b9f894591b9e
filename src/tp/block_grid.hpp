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

#include "tp/attention_body.hpp"
#include "tp/linear2p5d.hpp"
#include "tp/sharded_layernorm.hpp"

namespace ca::tp {

/// Multi-head self-attention on grid blocks: SUMMA QKV projection (the fused
/// weight in three column sections, so column block c is [Wq_c | Wk_c |
/// Wv_c], the heads of grid column c), local attention over the full
/// sequence of the local batch slice, SUMMA output projection.
/// Requires batch % (d*q) == 0 and heads % q == 0.
class GridAttention : public AttentionBody {
 public:
  GridAttention(const Env& env, std::string name, std::int64_t hidden,
                std::int64_t heads, std::uint64_t seed)
      : AttentionBody(env, heads,
                      {std::make_unique<Linear2p5D>(
                           env, name + ".qkv", hidden, 3 * hidden, seed,
                           /*with_bias=*/true, /*col_sections=*/3),
                       std::make_unique<Linear2p5D>(env, name + ".proj", hidden,
                                                    hidden, seed + 1)}) {
    assert(hidden % heads == 0);
  }
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
