#include "tp/sharded_layernorm.hpp"

#include <cassert>
#include <cmath>

#include "tp/comm_helpers.hpp"

namespace ca::tp {

namespace t = ca::tensor;

ShardedLayerNorm::ShardedLayerNorm(const Env& env, std::string name,
                                   std::int64_t hidden, nn::ShardSpec slice,
                                   std::vector<collective::Group*> stat_groups,
                                   std::vector<collective::Group*> grad_groups,
                                   float eps)
    : grank_(env.grank),
      hidden_(hidden),
      local_h_(hidden / slice.row_blocks),
      eps_(eps),
      stat_groups_(std::move(stat_groups)),
      grad_groups_(std::move(grad_groups)),
      gamma_(name + ".gamma", t::ones(t::Shape{local_h_})),
      beta_(name + ".beta", t::zeros(t::Shape{local_h_})) {
  assert(slice.full_rows == hidden && slice.full_cols == 0);
  gamma_.shard = slice;
  beta_.shard = slice;
}

std::unique_ptr<ShardedLayerNorm> ShardedLayerNorm::grid(const Env& env,
                                                         std::string name,
                                                         std::int64_t hidden) {
  core::ParallelContext& ctx = *env.ctx;
  const int g = env.grank, q = ctx.grid_side();
  // gamma/beta hold chunk c, replicated along grid rows and depth
  const nn::ShardSpec slice{hidden, 0, q, ctx.col_coord(g), 1, 0, 1,
                            ctx.row_coord(g) == 0 && ctx.depth_coord(g) == 0};
  std::vector<collective::Group*> grads{&ctx.col_group(g)};
  if (ctx.depth() > 1) grads.push_back(&ctx.depth_group(g));
  return std::make_unique<ShardedLayerNorm>(env, std::move(name), hidden,
                                            slice,
                                            std::vector{&ctx.row_group(g)},
                                            std::move(grads));
}

std::unique_ptr<ShardedLayerNorm> ShardedLayerNorm::cube(const Env& env,
                                                         std::string name,
                                                         std::int64_t hidden) {
  core::ParallelContext& ctx = *env.ctx;
  const int g = env.grank, l = ctx.grid_side();
  // gamma/beta hold chunk (k, j), replicated over the i axis (row chunks)
  const nn::ShardSpec slice{hidden, 0, l * l,
                            ctx.cube_k(g) * l + ctx.cube_j(g), 1, 0, 1,
                            ctx.cube_i(g) == 0};
  return std::make_unique<ShardedLayerNorm>(
      env, std::move(name), hidden, slice,
      std::vector{&ctx.cube_j_group(g), &ctx.cube_k_group(g)},
      std::vector{&ctx.cube_i_group(g)});
}

t::Tensor ShardedLayerNorm::forward(const t::Tensor& x) {
  assert(x.dim(-1) == local_h_);
  saved_x_ = x;
  const std::int64_t toks = x.numel() / local_h_;

  // per-token [sum | sumsq] over the local hidden slice, reduced over the
  // ranks holding the rest of the hidden vector
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
  for (collective::Group* g : stat_groups_) all_reduce(*g, grank_, stats);

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

t::Tensor ShardedLayerNorm::backward(const t::Tensor& dy) {
  const std::int64_t toks = dy.numel() / local_h_;

  // per-token [sum dyhat | sum dyhat*xhat] over the full hidden vector
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
  for (collective::Group* g : stat_groups_) all_reduce(*g, grank_, sums);

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
  // gamma/beta are shared with the ranks holding other tokens' same slice
  for (collective::Group* g : grad_groups_) {
    all_reduce(*g, grank_, dgamma);
    all_reduce(*g, grank_, dbeta);
  }
  t::add_(gamma_.grad, dgamma);
  t::add_(beta_.grad, dbeta);
  return dx;
}

void ShardedLayerNorm::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

}  // namespace ca::tp
