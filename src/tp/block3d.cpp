#include "tp/block3d.hpp"

#include <cassert>

namespace ca::tp {

namespace t = ca::tensor;

namespace {
/// Rearrange a fused (h, 3h) QKV weight so column chunk c of the new layout
/// is [Wq chunk c | Wk chunk c | Wv chunk c] — what the cube's local
/// attention needs from its Linear3D output.
t::Tensor permute_qkv_columns(const t::Tensor& full, int q) {
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
}  // namespace

// ---- Attention3D -------------------------------------------------------------------

Attention3D::Attention3D(const Env& env, std::string name, std::int64_t hidden,
                         std::int64_t heads, std::uint64_t seed)
    : env_(env),
      hidden_(hidden),
      l_(env.ctx->grid_side()),
      local_heads_(heads / l_),
      // The W block (chunk j*l+i of the permuted columns) straddles the
      // q/k/v sections, so its ShardSpec describes the permuted matrix and
      // checkpoints restore only onto a 3D cube of the same side (still
      // open: a spec for it needs a permuted column order).
      qkv_(env, name + ".qkv",
           permute_qkv_columns(
               t::randn(t::Shape{hidden, 3 * hidden}, seed, 0.0f,
                        1.0f / std::sqrt(static_cast<float>(hidden))),
               env.ctx->grid_side()),
           /*with_bias=*/true),
      proj_(env, name + ".proj", hidden, hidden, seed + 1) {
  assert(heads % l_ == 0 && hidden % heads == 0);
}

t::Tensor Attention3D::forward(const t::Tensor& x) {
  // x: X layout (b/l, s, h/l^2)
  assert(x.ndim() == 3);
  const std::int64_t bl = x.dim(0), s = x.dim(1);
  const std::int64_t ll = static_cast<std::int64_t>(l_) * l_;

  auto qkv = qkv_.forward(x.reshape(t::Shape{bl * s, hidden_ / ll}));
  // Y layout: (b/l^2 * s, 3h/l) = [q_j | k_j | v_j]
  auto ctx = core_.forward(nn::split_qkv(
      qkv.reshape(t::Shape{bl / l_, s, 3 * hidden_ / l_}), local_heads_));
  env_.dev().compute_fp32(4.0 * static_cast<double>(bl / l_) * local_heads_ *
                          s * s * ctx.dim(2));
  auto merged = nn::merge_heads(ctx, local_heads_);  // (b/l^2, s, h/l)

  // Y -> X so the projection can consume it, then project and return to X
  auto ctx_x = convert_3d_y_to_x(
      env_, merged.reshape(t::Shape{bl / l_ * s, hidden_ / l_}));
  auto y = proj_.forward(ctx_x);  // Y layout (rows/l^2, h/l)
  auto y_x = convert_3d_y_to_x(env_, y);
  return y_x.reshape(t::Shape{bl, s, hidden_ / ll});
}

t::Tensor Attention3D::backward(const t::Tensor& dy) {
  const std::int64_t bl = dy.dim(0), s = dy.dim(1);
  const std::int64_t ll = static_cast<std::int64_t>(l_) * l_;

  auto dy_y = convert_3d_x_to_y(
      env_, dy.reshape(t::Shape{bl * s, hidden_ / ll}));
  auto dctx_x = proj_.backward(dy_y);
  auto dmerged = convert_3d_x_to_y(env_, dctx_x)
                     .reshape(t::Shape{bl / l_, s, hidden_ / l_});
  auto dqkv = core_.backward(nn::split_heads(dmerged, local_heads_));
  env_.dev().compute_fp32(8.0 * static_cast<double>(bl / l_) * local_heads_ *
                          s * s * dqkv.q.dim(2));

  // Y layout (b/l^2, s, 3h/l)
  auto dx = qkv_.backward(nn::merge_qkv(dqkv, local_heads_)
                              .reshape(t::Shape{bl / l_ * s, 3 * hidden_ / l_}));
  return dx.reshape(t::Shape{bl, s, hidden_ / ll});
}

// ---- TransformerBlock3D --------------------------------------------------------------

TransformerBlock3D::TransformerBlock3D(const Env& env, std::string name,
                                       std::int64_t hidden, std::int64_t heads,
                                       std::int64_t ffn_hidden,
                                       std::uint64_t seed)
    : PreLNBlock({ShardedLayerNorm::cube(env, name + ".ln1", hidden),
                  std::make_unique<Attention3D>(env, name + ".attn", hidden,
                                                heads, seed),
                  ShardedLayerNorm::cube(env, name + ".ln2", hidden),
                  std::make_unique<Tokens3D>(
                      env, std::make_unique<Mlp3D>(env, name + ".mlp", hidden,
                                                   ffn_hidden, seed + 100))}) {}

}  // namespace ca::tp
