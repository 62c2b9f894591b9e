#pragma once

// Full Transformer block under 3D tensor parallelism. Layout conventions
// follow Linear3D on (batch, seq, hidden) tokens, with the row dimension
// chunked along BATCH (so every device sees full sequences):
//   X layout on (i,j,k): (batch/l, seq, hidden/l^2)     rows chunk i
//                        (Linear3D::shard_input cuts it from the full tensor)
//   Y layout on (i,j,k): (batch/l^2, seq, hidden/l)     rows chunk i*l+k
// The block's external interface is X layout on both sides; internal
// sublayers alternate X->Y through the 3D linears and redistribute back with
// Convert3D (exactly the alternation the Colossal-AI 3D layers use).
// Requires batch % l^2 == 0, heads % l == 0, hidden % l^2 == 0.

#include "tp/attention_body.hpp"
#include "tp/linear3d.hpp"
#include "tp/sharded_layernorm.hpp"

namespace ca::tp {

/// Multi-head attention on 3D blocks: a 3D QKV projection of the serial
/// [q|k|v] weight in three column sections (its Y-layout output is
/// [q_j | k_j | v_j], the heads of cube column j), local attention over the
/// Y-layout batch slice, and the output projection Convert3D -> Linear3D ->
/// Convert3D, so the residual stream stays in X layout.
class Attention3D : public AttentionBody {
 public:
  Attention3D(const Env& env, std::string name, std::int64_t hidden,
              std::int64_t heads, std::uint64_t seed);
};

/// Pre-LN Transformer block with X-layout residual stream: LayerNorms are
/// ShardedLayerNorm::cube, the MLP is Mlp3D plus a final Convert3D.
class TransformerBlock3D : public nn::PreLNBlock {
 public:
  TransformerBlock3D(const Env& env, std::string name, std::int64_t hidden,
                     std::int64_t heads, std::int64_t ffn_hidden,
                     std::uint64_t seed);
};

}  // namespace ca::tp
