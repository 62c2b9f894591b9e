#include "tp/linear2p5d.hpp"

#include <cassert>

#include "tp/relayout.hpp"

namespace ca::tp {

namespace t = ca::tensor;

namespace {
constexpr std::int64_t kF = 4;
}

Linear2p5D::Linear2p5D(const Env& env, std::string name, std::int64_t in,
                       std::int64_t out, std::uint64_t seed, bool with_bias,
                       int col_sections)
    : env_(env),
      in_(in),
      out_(out),
      with_bias_(with_bias),
      q_(env.ctx->grid_side()),
      d_(env.ctx->depth()),
      r_(env.ctx->row_coord(env.grank)),
      c_(env.ctx->col_coord(env.grank)),
      dd_(env.ctx->depth_coord(env.grank)),
      // depth row-slab dd of grid block (r, c) == row block r*d+dd of q*d
      weight_(shard_parameter(
          name + ".weight", serial_weight(in, out, seed),
          {in_, out_, q_ * d_, r_ * d_ + dd_, q_, c_, col_sections})),
      // bias holds column block c, replicated along grid rows and depth
      bias_(shard_parameter(name + ".bias", t::zeros(t::Shape{out_}),
                            {out_, 0, q_, c_, 1, 0, col_sections,
                             r_ == 0 && dd_ == 0})),
      footprint_(env.mem(),
                 param_footprint({&weight_, with_bias ? &bias_ : nullptr})),
      acts_(env.mem()) {}

t::Tensor Linear2p5D::shard_activation(const t::Tensor& full, int q, int depth,
                                       int dd, int r, int c) {
  assert(full.ndim() >= 2);
  auto rows = t::chunk(full, 0, depth * q, dd * q + r);
  return t::chunk(rows, -1, q, c);
}

t::Tensor Linear2p5D::shard_activation(const t::Tensor& full, const Env& env) {
  const core::ParallelContext& ctx = *env.ctx;
  return shard_activation(full, ctx.grid_side(), ctx.depth(),
                          ctx.depth_coord(env.grank), ctx.row_coord(env.grank),
                          ctx.col_coord(env.grank));
}

std::int64_t Linear2p5D::gathered_bytes() const {
  return d_ > 1 ? weight_.numel() * d_ * kF : 0;
}

t::Tensor Linear2p5D::weight_block() {
  if (d_ == 1) return weight_.value;  // the slab is the whole block
  auto& depth_g = env_.ctx->depth_group(env_.grank);
  return all_gather_dim0(depth_g, env_.grank, weight_.value,
                         env_.ctx->comm_dtype());
}

t::Tensor Linear2p5D::forward(const t::Tensor& x) {
  auto& row = env_.ctx->row_group(env_.grank);
  auto& col = env_.ctx->col_group(env_.grank);
  assert(x.dim(-1) == in_ / q_);
  saved_x_ = x;
  acts_.hold(x.numel() * kF);

  // gather-use-free: the full grid block exists only for the duration of the
  // SUMMA pass.
  sim::ScopedAlloc wtmp(env_.mem(), gathered_bytes());
  auto w_block = weight_block();

  const t::Dtype wire = env_.ctx->comm_dtype();
  auto y = t::zeros(x.shape().with_dim(-1, out_ / q_));
  // SUMMA: Y(r,c) = sum_t X(r,t) W(t,c)
  for (int step = 0; step < q_; ++step) {
    sim::ScopedAlloc tmp_a(env_.mem(), x.numel() * kF);
    sim::ScopedAlloc tmp_b(env_.mem(), w_block.numel() * kF);
    t::Tensor a = (c_ == step) ? saved_x_.clone() : t::zeros(x.shape());
    broadcast(row, env_.grank, a, step, wire);
    t::Tensor b = (r_ == step) ? w_block.clone() : t::zeros(w_block.shape());
    broadcast(col, env_.grank, b, step, wire);
    t::add_(y, t::matmul(a, b));
    env_.dev().compute_fp32(2.0 * static_cast<double>(a.numel()) *
                            static_cast<double>(b.dim(1)));
  }
  if (with_bias_) t::add_bias_(y, bias_.value);
  acts_.hold(y.numel() * kF);
  return y;
}

t::Tensor Linear2p5D::backward(const t::Tensor& dy) {
  auto& row = env_.ctx->row_group(env_.grank);
  auto& col = env_.ctx->col_group(env_.grank);
  assert(dy.dim(-1) == out_ / q_);
  const t::Dtype wire = env_.ctx->comm_dtype();

  if (with_bias_) {
    // db(c) = sum over all row blocks of all depth slabs.
    auto db = t::sum_to_lastdim(dy);
    all_reduce(col, env_.grank, db, wire);
    if (d_ > 1) {
      all_reduce(env_.ctx->depth_group(env_.grank), env_.grank, db, wire);
    }
    t::add_(bias_.grad, db);
  }

  sim::ScopedAlloc wtmp(env_.mem(), gathered_bytes());
  auto w_block = weight_block();

  // dX(r, t) = sum_c dY(r, c) W(t, c)^T : broadcast W(t, c) down the column,
  // multiply locally, reduce across the row to the rank in column t.
  auto dx = t::zeros(saved_x_.shape());
  for (int step = 0; step < q_; ++step) {
    sim::ScopedAlloc tmp_b(env_.mem(), w_block.numel() * kF);
    sim::ScopedAlloc tmp_p(env_.mem(), saved_x_.numel() * kF);
    t::Tensor w_tc = (r_ == step) ? w_block.clone() : t::zeros(w_block.shape());
    broadcast(col, env_.grank, w_tc, step, wire);
    auto partial = t::matmul_nt(dy, w_tc);
    env_.dev().compute_fp32(2.0 * static_cast<double>(dy.numel()) *
                            static_cast<double>(w_tc.dim(0)));
    row.reduce(env_.grank, partial.data(), step);
    if (c_ == step) dx = partial;
  }

  // dW(t, c) = sum_r X(r, t)^T dY(r, c) : broadcast X(r, t) along the row,
  // multiply locally, reduce down the column to the rank in row t; then
  // reduce-scatter over depth so every rank ends with exactly its slab's
  // gradient summed over the batch.
  t::Tensor dw_block = t::zeros(t::Shape{in_ / q_, out_ / q_});
  for (int step = 0; step < q_; ++step) {
    sim::ScopedAlloc tmp_a(env_.mem(), saved_x_.numel() * kF);
    sim::ScopedAlloc tmp_p(env_.mem(), dw_block.numel() * kF);
    t::Tensor x_rt = (c_ == step) ? saved_x_.clone() : t::zeros(saved_x_.shape());
    broadcast(row, env_.grank, x_rt, step, wire);
    auto partial = t::matmul_tn(x_rt, dy);
    env_.dev().compute_fp32(2.0 * static_cast<double>(x_rt.numel()) *
                            static_cast<double>(dy.dim(-1)));
    col.reduce(env_.grank, partial.data(), step);
    if (r_ == step) dw_block = partial;
  }
  if (d_ > 1) {
    dw_block = reduce_scatter_dim0(env_.ctx->depth_group(env_.grank),
                                   env_.grank, dw_block, wire);
  }
  t::add_(weight_.grad, dw_block);

  acts_.release_all();
  return dx;
}

void Linear2p5D::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&weight_);
  if (with_bias_) out.push_back(&bias_);
}

// ---- Mlp2p5D --------------------------------------------------------------------

Mlp2p5D::Mlp2p5D(const Env& env, std::string name, std::int64_t hidden,
                 std::int64_t ffn_hidden, std::uint64_t seed)
    : MlpBody({std::make_unique<Linear2p5D>(env, name + ".fc1", hidden,
                                            ffn_hidden, seed),
               std::make_unique<Linear2p5D>(env, name + ".fc2", ffn_hidden,
                                            hidden, seed + 1)}) {}

}  // namespace ca::tp
