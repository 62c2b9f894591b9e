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
// Every device therefore sees full sequences for its batch slice and full
// head_dim for its heads slice, so scaled-dot-product attention is local;
// the linear projections run SUMMA over the same blocks; LayerNorm assembles
// its per-token statistics with one small row-group all-reduce.

#include <cmath>

#include "nn/layers.hpp"
#include "tp/linear2p5d.hpp"

namespace ca::tp {

/// Slice the (dd, r, c) block of a full (batch, seq, hidden) activation.
inline tensor::Tensor shard_tokens(const tensor::Tensor& full, int q, int depth,
                                   int dd, int r, int c) {
  auto batch_block = tensor::chunk(full, 0, depth * q, dd * q + r);
  return tensor::chunk(batch_block, 2, q, c);
}

/// The same slice for env's rank on env's grid.
inline tensor::Tensor shard_tokens(const tensor::Tensor& full, const Env& env) {
  const core::ParallelContext& ctx = *env.ctx;
  return shard_tokens(full, ctx.grid_side(), ctx.depth(),
                      ctx.depth_coord(env.grank), ctx.row_coord(env.grank),
                      ctx.col_coord(env.grank));
}

/// LayerNorm over the hidden dimension when hidden is column-sharded: the
/// per-token mean/variance need one row-group all-reduce in forward and one
/// in backward; gamma/beta hold the local hidden slice (replicated along
/// rows and depth, so their gradients reduce over the column/depth groups).
class GridLayerNorm : public nn::Module {
 public:
  GridLayerNorm(const Env& env, std::string name, std::int64_t hidden,
                float eps = 1e-5f)
      : env_(env),
        hidden_(hidden),
        local_h_(hidden / env.ctx->grid_side()),
        eps_(eps),
        gamma_(name + ".gamma", tensor::ones(tensor::Shape{local_h_})),
        beta_(name + ".beta", tensor::zeros(tensor::Shape{local_h_})) {}

  tensor::Tensor forward(const tensor::Tensor& x) override {
    namespace t = ca::tensor;
    auto& row = env_.ctx->row_group(env_.grank);
    assert(x.dim(-1) == local_h_);
    saved_x_ = x;
    const std::int64_t toks = x.numel() / local_h_;

    // per-token [sum | sumsq] over the local hidden slice, reduced over rows
    t::Tensor stats(t::Shape{2 * toks}, 0.0f);
    auto px = x.data();
    for (std::int64_t tk = 0; tk < toks; ++tk) {
      double s = 0.0, s2 = 0.0;
      const float* xr = px.data() + tk * local_h_;
      for (std::int64_t c = 0; c < local_h_; ++c) {
        s += xr[c];
        s2 += static_cast<double>(xr[c]) * xr[c];
      }
      stats[tk] = static_cast<float>(s);
      stats[toks + tk] = static_cast<float>(s2);
    }
    all_reduce(row, env_.grank, stats);

    saved_mean_ = t::Tensor(t::Shape{toks});
    saved_rstd_ = t::Tensor(t::Shape{toks});
    t::Tensor y(x.shape());
    auto py = y.data();
    const auto h = static_cast<float>(hidden_);
    for (std::int64_t tk = 0; tk < toks; ++tk) {
      const float mu = stats[tk] / h;
      const float var = stats[toks + tk] / h - mu * mu;
      const float rs = 1.0f / std::sqrt(var + eps_);
      saved_mean_[tk] = mu;
      saved_rstd_[tk] = rs;
      const float* xr = px.data() + tk * local_h_;
      float* yr = py.data() + tk * local_h_;
      for (std::int64_t c = 0; c < local_h_; ++c)
        yr[c] = (xr[c] - mu) * rs * gamma_.value[c] + beta_.value[c];
    }
    return y;
  }

  tensor::Tensor backward(const tensor::Tensor& dy) override {
    namespace t = ca::tensor;
    auto& row = env_.ctx->row_group(env_.grank);
    auto& col = env_.ctx->col_group(env_.grank);
    const std::int64_t toks = dy.numel() / local_h_;

    // per-token [sum dyhat | sum dyhat*xhat] over full hidden
    t::Tensor sums(t::Shape{2 * toks}, 0.0f);
    auto px = saved_x_.data();
    auto pd = dy.data();
    for (std::int64_t tk = 0; tk < toks; ++tk) {
      const float mu = saved_mean_[tk], rs = saved_rstd_[tk];
      const float* xr = px.data() + tk * local_h_;
      const float* dr = pd.data() + tk * local_h_;
      double s = 0.0, sx = 0.0;
      for (std::int64_t c = 0; c < local_h_; ++c) {
        const float dyhat = dr[c] * gamma_.value[c];
        const float xhat = (xr[c] - mu) * rs;
        s += dyhat;
        sx += static_cast<double>(dyhat) * xhat;
      }
      sums[tk] = static_cast<float>(s);
      sums[toks + tk] = static_cast<float>(sx);
    }
    all_reduce(row, env_.grank, sums);

    t::Tensor dx(dy.shape());
    t::Tensor dgamma(t::Shape{local_h_}, 0.0f);
    t::Tensor dbeta(t::Shape{local_h_}, 0.0f);
    auto pdx = dx.data();
    const float inv_h = 1.0f / static_cast<float>(hidden_);
    for (std::int64_t tk = 0; tk < toks; ++tk) {
      const float mu = saved_mean_[tk], rs = saved_rstd_[tk];
      const float* xr = px.data() + tk * local_h_;
      const float* dr = pd.data() + tk * local_h_;
      float* dxr = pdx.data() + tk * local_h_;
      for (std::int64_t c = 0; c < local_h_; ++c) {
        const float xhat = (xr[c] - mu) * rs;
        const float dyhat = dr[c] * gamma_.value[c];
        dxr[c] = rs * (dyhat - inv_h * sums[tk] - xhat * inv_h * sums[toks + tk]);
        dgamma[c] += dr[c] * xhat;
        dbeta[c] += dr[c];
      }
    }
    // gamma/beta are shared across rows (and depth): sum their grads there
    all_reduce(col, env_.grank, dgamma);
    all_reduce(col, env_.grank, dbeta);
    if (env_.ctx->depth() > 1) {
      auto& depth = env_.ctx->depth_group(env_.grank);
      all_reduce(depth, env_.grank, dgamma);
      all_reduce(depth, env_.grank, dbeta);
    }
    tensor::add_(gamma_.grad, dgamma);
    tensor::add_(beta_.grad, dbeta);
    return dx;
  }

  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    out.push_back(&gamma_);
    out.push_back(&beta_);
  }

 private:
  Env env_;
  std::int64_t hidden_, local_h_;
  float eps_;
  nn::Parameter gamma_, beta_;  // local hidden slice (chunk c)
  tensor::Tensor saved_x_, saved_mean_, saved_rstd_;
};

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
        hidden_(hidden),
        heads_(heads),
        q_(env.ctx->grid_side()),
        local_heads_(heads / q_),
        head_dim_(hidden / heads),
        qkv_(env, name + ".qkv",
             detail::permute_qkv_columns(
                 tensor::randn(tensor::Shape{hidden, 3 * hidden}, seed, 0.0f,
                               1.0f / std::sqrt(static_cast<float>(hidden))),
                 env.ctx->grid_side())),
        proj_(env, name + ".proj", hidden, hidden, seed + 1) {
    assert(heads % q_ == 0 && hidden % heads == 0);
  }

  tensor::Tensor forward(const tensor::Tensor& x) override {
    namespace t = ca::tensor;
    assert(x.ndim() == 3 && x.dim(2) == hidden_ / q_);
    const std::int64_t b = x.dim(0), s = x.dim(1);
    saved_batch_ = b;
    saved_seq_ = s;

    auto qkv = qkv_.forward(x);  // (b, s, 3h/q) = [q_c | k_c | v_c]
    auto qh = t::chunk(qkv, -1, 3, 0);
    auto kh = t::chunk(qkv, -1, 3, 1);
    auto vh = t::chunk(qkv, -1, 3, 2);
    saved_q_ = nn::split_heads(qh, local_heads_);
    saved_k_ = nn::split_heads(kh, local_heads_);
    saved_v_ = nn::split_heads(vh, local_heads_);

    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    auto scores = t::bmm_nt(saved_q_, saved_k_);
    saved_attn_ = t::softmax_lastdim_scaled(scores, scale);
    auto ctx = t::bmm(saved_attn_, saved_v_);
    env_.dev().compute_fp32(4.0 * static_cast<double>(b) * local_heads_ * s *
                            s * head_dim_);
    return proj_.forward(nn::merge_heads(ctx, local_heads_));
  }

  tensor::Tensor backward(const tensor::Tensor& dy) override {
    namespace t = ca::tensor;
    auto dmerged = proj_.backward(dy);
    auto dctx = nn::split_heads(dmerged, local_heads_);

    auto dattn = t::bmm_nt(dctx, saved_v_);
    auto dv = t::bmm_tn(saved_attn_, dctx);
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    auto dscores = t::softmax_backward_scaled(saved_attn_, dattn, scale);
    auto dq = t::bmm(dscores, saved_k_);
    auto dk = t::bmm_tn(dscores, saved_q_);
    env_.dev().compute_fp32(8.0 * static_cast<double>(saved_batch_) *
                            local_heads_ * saved_seq_ * saved_seq_ * head_dim_);

    auto dqkv = t::cat(std::vector<t::Tensor>{nn::merge_heads(dq, local_heads_),
                                              nn::merge_heads(dk, local_heads_),
                                              nn::merge_heads(dv, local_heads_)},
                       -1);
    return qkv_.backward(dqkv);
  }

  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    qkv_.collect_parameters(out);
    proj_.collect_parameters(out);
  }

 private:
  Env env_;
  std::int64_t hidden_, heads_;
  int q_;
  std::int64_t local_heads_, head_dim_;
  Linear2p5D qkv_;
  Linear2p5D proj_;
  tensor::Tensor saved_q_, saved_k_, saved_v_, saved_attn_;
  std::int64_t saved_batch_ = 0, saved_seq_ = 0;
};

/// Pre-LN Transformer block on grid blocks.
class GridTransformerBlock : public nn::Module {
 public:
  GridTransformerBlock(const Env& env, std::string name, std::int64_t hidden,
                       std::int64_t heads, std::int64_t ffn_hidden,
                       std::uint64_t seed)
      : ln1_(env, name + ".ln1", hidden),
        attn_(env, name + ".attn", hidden, heads, seed),
        ln2_(env, name + ".ln2", hidden),
        fc1_(env, name + ".mlp.fc1", hidden, ffn_hidden, seed + 100),
        fc2_(env, name + ".mlp.fc2", ffn_hidden, hidden, seed + 101) {}

  tensor::Tensor forward(const tensor::Tensor& x) override {
    namespace t = ca::tensor;
    auto h = t::add(x, attn_.forward(ln1_.forward(x)));
    auto m = fc2_.forward(act_.forward(fc1_.forward(ln2_.forward(h))));
    return t::add(h, m);
  }

  tensor::Tensor backward(const tensor::Tensor& dy) override {
    namespace t = ca::tensor;
    auto dmlp = ln2_.backward(
        fc1_.backward(act_.backward(fc2_.backward(dy))));
    auto dh = t::add(dy, dmlp);
    return t::add(dh, ln1_.backward(attn_.backward(dh)));
  }

  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    ln1_.collect_parameters(out);
    attn_.collect_parameters(out);
    ln2_.collect_parameters(out);
    fc1_.collect_parameters(out);
    fc2_.collect_parameters(out);
  }

 private:
  GridLayerNorm ln1_;
  GridAttention attn_;
  GridLayerNorm ln2_;
  Linear2p5D fc1_;
  nn::Gelu act_;
  Linear2p5D fc2_;
};

}  // namespace ca::tp
