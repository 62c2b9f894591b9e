#include "tp/sim_transformer.hpp"

#include <cassert>

namespace ca::tp {

using collective::Op;

SimTransformer::SimTransformer(const Env& env, core::TpMode mode,
                               TransformerShape shape)
    : env_(env),
      mode_(mode),
      shape_(shape),
      p_(env.ctx->tensor_group(env.grank).size()),
      replay_(env.ctx->tensor_group(env.grank), env.grank) {}

std::int64_t SimTransformer::peak_memory() const {
  return transformer_peak(mode_, shape_, p_, env_.ctx->depth());
}

bool SimTransformer::fits() const {
  return peak_memory() <= env_.dev().gpu().memory_bytes;
}

void SimTransformer::train_step() {
  switch (mode_) {
    case core::TpMode::k1d: step_1d(); break;
    case core::TpMode::k3d: step_3d(); break;
    case core::TpMode::kNone: {
      // serial: compute only
      const double flops = 2.0 * 12.0 * shape_.hidden * shape_.hidden *
                               shape_.batch * shape_.seq +
                           4.0 * shape_.batch * shape_.seq * shape_.seq * shape_.hidden;
      replay_.compute(3.0 * flops * static_cast<double>(shape_.layers));
      replay_.flush();
      break;
    }
    default: step_grid(); break;  // 2D and 2.5D
  }
}

void SimTransformer::step_1d() {
  auto& g = env_.ctx->tensor_group(env_.grank);
  const std::int64_t bsh = shape_.batch * shape_.seq * shape_.hidden;
  const std::int64_t be = shape_.bytes_per_elem;
  // per layer: qkv + proj + 2 mlp matmuls, all 1/p of the serial FLOPs,
  // plus the heads-sharded attention score/context batched matmuls.
  const double lin_flops = 2.0 * 12.0 * shape_.hidden * shape_.hidden *
                           shape_.batch * shape_.seq / p_;
  const double attn_flops =
      4.0 * shape_.batch * shape_.seq * shape_.seq * shape_.hidden / p_;
  for (std::int64_t l = 0; l < shape_.layers; ++l) {
    // forward: one all-reduce each for attention proj and mlp fc2 outputs
    replay_.compute(lin_flops + attn_flops);
    replay_.collective(g, Op::kAllReduce, bsh * be);
    replay_.collective(g, Op::kAllReduce, bsh * be);
    // backward: 2x compute, all-reduce of dx at the two column-parallel inputs
    replay_.compute(2.0 * (lin_flops + attn_flops));
    replay_.collective(g, Op::kAllReduce, bsh * be);
    replay_.collective(g, Op::kAllReduce, bsh * be);
    replay_.flush();
  }
}

void SimTransformer::summa_linear(std::int64_t m, std::int64_t k,
                                  std::int64_t n) {
  auto& row = env_.ctx->row_group(env_.grank);
  auto& col = env_.ctx->col_group(env_.grank);
  const int q = env_.ctx->grid_side();
  const std::int64_t be = shape_.bytes_per_elem;
  const std::int64_t x_blk = m * k / (q * q) * be;
  const std::int64_t w_blk = k * n / (q * q) * be;
  const double flops = 2.0 * static_cast<double>(m) * k * n / (q * q * q);

  // forward: q steps of (broadcast X block along row, W block along col)
  for (int s = 0; s < q; ++s) {
    replay_.collective(row, Op::kBroadcast, x_blk);
    replay_.collective(col, Op::kBroadcast, w_blk);
    replay_.compute(flops);
  }
  // backward dX: broadcast W down columns, reduce partials along rows
  for (int s = 0; s < q; ++s) {
    replay_.collective(col, Op::kBroadcast, w_blk);
    replay_.collective(row, Op::kReduce, x_blk);
    replay_.compute(flops);
  }
  // backward dW: broadcast X along rows, reduce partials down columns
  for (int s = 0; s < q; ++s) {
    replay_.collective(row, Op::kBroadcast, x_blk);
    replay_.collective(col, Op::kReduce, w_blk);
    replay_.compute(flops);
  }
}

void SimTransformer::step_grid() {
  const std::int64_t depth = env_.ctx->depth();
  const std::int64_t h = shape_.hidden;
  // each depth layer works on its slab of the rows
  const std::int64_t rows = shape_.batch * shape_.seq / depth;
  const int q = env_.ctx->grid_side();

  for (std::int64_t l = 0; l < shape_.layers; ++l) {
    if (depth > 1) {
      // gather the weight slabs before use, scatter the gradients after —
      // one AG + one RS per linear; fold them into two calls per layer group.
      auto& dg = env_.ctx->depth_group(env_.grank);
      const std::int64_t w_blocks = 12 * h * h / (q * q) * shape_.bytes_per_elem;
      replay_.collective(dg, Op::kAllGather, w_blocks);
      replay_.collective(dg, Op::kReduceScatter, w_blocks);
    }
    summa_linear(rows, h, 3 * h);   // qkv
    summa_linear(rows, h, h);       // proj
    summa_linear(rows, h, 4 * h);   // mlp fc1
    summa_linear(rows, 4 * h, h);   // mlp fc2
    // grid-sharded attention batched matmuls: local compute
    replay_.compute(3.0 * 4.0 * shape_.batch * shape_.seq * shape_.seq * h /
                    p_);
    replay_.flush();
  }
}

void SimTransformer::step_3d() {
  auto& gi = env_.ctx->cube_i_group(env_.grank);
  auto& gj = env_.ctx->cube_j_group(env_.grank);
  auto& gk = env_.ctx->cube_k_group(env_.grank);
  const int l3 = env_.ctx->grid_side();
  const std::int64_t ll = static_cast<std::int64_t>(l3) * l3;
  const std::int64_t be = shape_.bytes_per_elem;
  const std::int64_t rows = shape_.batch * shape_.seq;
  const std::int64_t h = shape_.hidden;

  auto linear3d = [&](std::int64_t m, std::int64_t k, std::int64_t n) {
    const double flops = 2.0 * static_cast<double>(m) * k * n / (ll * l3);
    // forward: AG X over j, AG W over i, RS Y over k
    replay_.collective(gj, Op::kAllGather, m * k / ll * be);
    replay_.collective(gi, Op::kAllGather, k * n / ll * be);
    replay_.compute(flops);
    replay_.collective(gk, Op::kReduceScatter, m * n / ll * be);
    // backward: AG dY over k, RS dX over j, RS dW over i
    replay_.collective(gk, Op::kAllGather, m * n / ll * be);
    replay_.compute(2.0 * flops);
    replay_.collective(gj, Op::kReduceScatter, m * k / ll * be);
    replay_.collective(gi, Op::kReduceScatter, k * n / ll * be);
  };

  for (std::int64_t layer = 0; layer < shape_.layers; ++layer) {
    linear3d(rows, h, 3 * h);
    linear3d(rows, h, h);
    linear3d(rows, h, 4 * h);
    linear3d(rows, 4 * h, h);
    replay_.compute(3.0 * 4.0 * shape_.batch * shape_.seq * shape_.seq * h /
                    p_);
    replay_.flush();
  }
}

}  // namespace ca::tp
