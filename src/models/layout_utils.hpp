#pragma once

#include <functional>

#include "tensor/ops.hpp"
#include "tp/env.hpp"
#include "tp/linear2p5d.hpp"
#include "tp/linear3d.hpp"

namespace ca::models::detail {

/// Reassemble equally-shaped rank blocks (given flattened, rank-major) into
/// a full matrix, with `place(rank) -> (row chunk, col chunk)`.
inline tensor::Tensor reassemble_blocks(
    const tensor::Tensor& flat_blocks, std::int64_t block_rows,
    std::int64_t block_cols, int n_row_chunks, int n_col_chunks,
    const std::function<std::pair<int, int>(int)>& place) {
  namespace t = ca::tensor;
  const int n = n_row_chunks * n_col_chunks;
  t::Tensor full(
      t::Shape{block_rows * n_row_chunks, block_cols * n_col_chunks});
  auto pf = full.data();
  auto pb = flat_blocks.data();
  const std::int64_t block = block_rows * block_cols;
  const std::int64_t full_cols = block_cols * n_col_chunks;
  for (int m = 0; m < n; ++m) {
    const auto [rc, cc] = place(m);
    const float* src = pb.data() + m * block;
    for (std::int64_t r = 0; r < block_rows; ++r) {
      float* dst =
          pf.data() + (rc * block_rows + r) * full_cols + cc * block_cols;
      std::copy(src + r * block_cols, src + (r + 1) * block_cols, dst);
    }
  }
  return full;
}

/// Mean-pool (b, s, h) tokens over the sequence into (b, h), dividing by
/// `full_seq`: a rank holding a sub-sequence gets its partial of the mean.
inline tensor::Tensor mean_pool(const tensor::Tensor& tokens,
                                std::int64_t full_seq) {
  namespace t = ca::tensor;
  const std::int64_t b = tokens.dim(0), s = tokens.dim(1), h = tokens.dim(2);
  t::Tensor pooled(t::Shape{b, h}, 0.0f);
  auto pt = tokens.data();
  auto pp = pooled.data();
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t si = 0; si < s; ++si)
      for (std::int64_t c = 0; c < h; ++c)
        pp[static_cast<std::size_t>(bi * h + c)] +=
            pt[static_cast<std::size_t>((bi * s + si) * h + c)];
  t::scale_(pooled, 1.0f / static_cast<float>(full_seq));
  return pooled;
}

/// mean_pool's backward: every one of the `s` local tokens gets
/// dpooled / full_seq.
inline tensor::Tensor unpool(const tensor::Tensor& dpooled, std::int64_t s,
                             std::int64_t full_seq) {
  namespace t = ca::tensor;
  const std::int64_t b = dpooled.dim(0), h = dpooled.dim(1);
  t::Tensor dtokens(t::Shape{b, s, h});
  auto pd = dtokens.data();
  auto pp = dpooled.data();
  const float inv = 1.0f / static_cast<float>(full_seq);
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t si = 0; si < s; ++si)
      for (std::int64_t c = 0; c < h; ++c)
        pd[static_cast<std::size_t>((bi * s + si) * h + c)] =
            pp[static_cast<std::size_t>(bi * h + c)] * inv;
  return dtokens;
}

/// Gather per-rank 2-d (batch, classes) logits blocks of `mode`'s output
/// layout into the full matrix, replicated on every rank of the tensor group.
inline tensor::Tensor gather_logits(const tp::Env& env, core::TpMode mode,
                                    const tensor::Tensor& local) {
  namespace t = ca::tensor;
  if (!core::is_grid(mode) && mode != core::TpMode::k3d) return local;
  auto& ctx = *env.ctx;
  auto& g = ctx.tensor_group(env.grank);
  t::Tensor flat(t::Shape{local.numel() * g.size()});
  g.all_gather(env.grank, local.data(), flat.data());
  const std::int64_t br = local.dim(0), bc = local.dim(1);
  const int q = ctx.grid_side();
  if (core::is_grid(mode)) {
    return reassemble_blocks(flat, br, bc, ctx.depth() * q, q, [q](int m) {
      const int dd = m / (q * q), r = (m / q) % q, c = m % q;
      return std::pair<int, int>{dd * q + r, c};
    });
  }
  return reassemble_blocks(flat, br, bc, q * q, q, [q](int m) {
    const int i = m / (q * q), j = (m / q) % q, k = m % q;
    return std::pair<int, int>{i * q + k, j};
  });
}

/// Slice this rank's block of full (batch, classes) logits (or their
/// gradient) in `mode`'s output layout — the inverse of gather_logits.
inline tensor::Tensor shard_logits(const tp::Env& env, core::TpMode mode,
                                   const tensor::Tensor& full) {
  if (core::is_grid(mode)) return tp::Linear2p5D::shard_activation(full, env);
  if (mode == core::TpMode::k3d) {
    auto& ctx = *env.ctx;
    return tp::Linear3D::shard_output(full, ctx.grid_side(),
                                      ctx.cube_i(env.grank),
                                      ctx.cube_j(env.grank),
                                      ctx.cube_k(env.grank));
  }
  return full;
}

}  // namespace ca::models::detail
