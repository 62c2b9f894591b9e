#include "tp/linear3d.hpp"

#include <cassert>
#include <cmath>

namespace ca::tp {

namespace t = ca::tensor;

namespace {
constexpr std::int64_t kF = 4;
}

Linear3D::Linear3D(const Env& env, std::string name, std::int64_t in,
                   std::int64_t out, std::uint64_t seed, bool with_bias)
    : Linear3D(env, std::move(name),
               t::randn(t::Shape{in, out}, seed, 0.0f,
                        1.0f / std::sqrt(static_cast<float>(in))),
               with_bias) {}

Linear3D::Linear3D(const Env& env, std::string name,
                   const t::Tensor& full_weight, bool with_bias)
    : env_(env),
      in_(full_weight.dim(0)),
      out_(full_weight.dim(1)),
      with_bias_(with_bias),
      l_(env.ctx->grid_side()),
      i_(env.ctx->cube_i(env.grank)),
      j_(env.ctx->cube_j(env.grank)),
      k_(env.ctx->cube_k(env.grank)),
      weight_(name + ".weight", t::Tensor()),
      bias_(name + ".bias", t::Tensor()),
      acts_(env.mem()) {
  assert(in_ % (l_ * l_) == 0 && out_ % (l_ * l_) == 0);
  const auto& full = full_weight;
  // rows chunk k, cols chunk (j*l + i)
  weight_.value =
      t::chunk(t::chunk(full, 0, l_, k_), 1, l_ * l_, j_ * l_ + i_);
  weight_.grad = t::zeros(weight_.value.shape());
  bias_.value = t::zeros(t::Shape{out_ / l_});
  bias_.grad = t::zeros(t::Shape{out_ / l_});
  weight_.shard = nn::ShardSpec{in_, out_, l_, k_, l_ * l_, j_ * l_ + i_};
  // bias holds chunk j of l, replicated over the i and k cube axes
  bias_.shard =
      nn::ShardSpec{out_, 0, l_, j_, 1, 0, 1, i_ == 0 && k_ == 0};
  param_bytes_ = 2 * (weight_.numel() + (with_bias_ ? bias_.numel() : 0)) * kF;
  env_.mem().alloc(param_bytes_);
}

Linear3D::~Linear3D() { env_.mem().free(param_bytes_); }

t::Tensor Linear3D::shard_input(const t::Tensor& full, int l, int i, int j,
                                int k) {
  assert(full.ndim() >= 2);
  return t::chunk(t::chunk(full, 0, l, i), -1, l * l, k * l + j);
}

t::Tensor Linear3D::shard_output(const t::Tensor& full, int l, int i, int j,
                                 int k) {
  assert(full.ndim() == 2);
  return t::chunk(t::chunk(full, 0, l * l, i * l + k), 1, l, j);
}

// The gathered operands are streamed through device memory in double-buffered
// 1/kStreamChunks slices (as in the chunked 3D implementation of Bian et
// al.), so only 2/kStreamChunks of each gathered block is resident at once.
// The host-side math below still materializes whole blocks — numerically
// identical, simpler — while the MemoryTracker accounting models the
// streamed device implementation.
namespace {
constexpr std::int64_t kStreamChunks = 8;
}

t::Tensor Linear3D::forward(const t::Tensor& x) {
  auto& gi = env_.ctx->cube_i_group(env_.grank);
  auto& gj = env_.ctx->cube_j_group(env_.grank);
  auto& gk = env_.ctx->cube_k_group(env_.grank);
  assert(x.ndim() == 2 && x.dim(1) == in_ / (l_ * l_));

  // held until backward: the local input and output shards
  acts_.hold(x.numel() * kF);

  const t::Dtype wire = env_.ctx->comm_dtype();
  saved_a_ = all_gather_lastdim(gj, env_.grank, x, wire);  // (rows/l, in/l)
  saved_b_ =
      all_gather_lastdim(gi, env_.grank, weight_.value, wire);  // (in/l, out/l)
  const std::int64_t a_blk = saved_a_.numel() * kF;
  const std::int64_t b_blk = saved_b_.numel() * kF;
  const std::int64_t y_blk = saved_a_.dim(0) * (out_ / l_) * kF;
  sim::ScopedAlloc stream(env_.mem(),
                          2 * (a_blk + b_blk + y_blk) / kStreamChunks);

  auto partial = t::matmul(saved_a_, saved_b_);  // (rows/l, out/l)
  env_.dev().compute_fp32(2.0 * static_cast<double>(saved_a_.numel()) *
                          static_cast<double>(saved_b_.dim(1)));
  auto y =
      reduce_scatter_dim0(gk, env_.grank, partial, wire);  // (rows/l^2, out/l)
  if (with_bias_) t::add_bias_(y, bias_.value);
  acts_.hold(y.numel() * kF);
  return y;
}

t::Tensor Linear3D::backward(const t::Tensor& dy) {
  auto& gi = env_.ctx->cube_i_group(env_.grank);
  auto& gj = env_.ctx->cube_j_group(env_.grank);
  auto& gk = env_.ctx->cube_k_group(env_.grank);
  assert(dy.dim(-1) == out_ / l_);
  const t::Dtype wire = env_.ctx->comm_dtype();

  if (with_bias_) {
    auto db = t::sum_to_lastdim(dy);
    all_reduce(gi, env_.grank, db, wire);
    all_reduce(gk, env_.grank, db, wire);
    t::add_(bias_.grad, db);
  }

  const std::int64_t a_blk = saved_a_.numel() * kF;
  const std::int64_t b_blk = saved_b_.numel() * kF;
  const std::int64_t y_blk = saved_a_.dim(0) * (out_ / l_) * kF;
  sim::ScopedAlloc stream(env_.mem(),
                          2 * (a_blk + b_blk + y_blk) / kStreamChunks);

  auto dy_full = all_gather_dim0(gk, env_.grank, dy, wire);  // (rows/l, out/l)

  // dX = dY W^T, partial over j; scatter back to the X layout.
  auto dx_partial = t::matmul_nt(dy_full, saved_b_);  // (rows/l, in/l)
  auto dx = reduce_scatter_lastdim(gj, env_.grank, dx_partial, wire);

  // dW = X^T dY, partial over i; scatter back to the W layout.
  auto dw_partial = t::matmul_tn(saved_a_, dy_full);  // (in/l, out/l)
  auto dw = reduce_scatter_lastdim(gi, env_.grank, dw_partial, wire);
  t::add_(weight_.grad, dw);

  env_.dev().compute_fp32(4.0 * static_cast<double>(saved_a_.numel()) *
                          static_cast<double>(saved_b_.dim(1)));
  acts_.release_all();
  return dx;
}

t::Tensor convert_3d_y_to_x(const Env& env, const t::Tensor& y) {
  auto& ctx = *env.ctx;
  auto& gj = ctx.cube_j_group(env.grank);
  auto& gk = ctx.cube_k_group(env.grank);
  const int l = ctx.grid_side();
  const int j = ctx.cube_j(env.grank), k = ctx.cube_k(env.grank);
  const t::Dtype wire = ctx.comm_dtype();
  // (rows/l^2, n/l) --AG over k--> (rows/l, n/l) --AG over j--> (rows/l, n)
  auto rows_i = all_gather_dim0(gk, env.grank, y, wire);
  auto full_cols = all_gather_lastdim(gj, env.grank, rows_i, wire);
  // take the (k*l + j) column chunk: the next layer's X layout
  return t::chunk(full_cols, 1, l * l, k * l + j);
}

t::Tensor convert_3d_x_to_y(const Env& env, const t::Tensor& dx) {
  auto& ctx = *env.ctx;
  auto& gj = ctx.cube_j_group(env.grank);
  auto& gk = ctx.cube_k_group(env.grank);
  const int l = ctx.grid_side();
  const int j = ctx.cube_j(env.grank), k = ctx.cube_k(env.grank);
  const t::Dtype wire = ctx.comm_dtype();
  // cols chunk (k*l + j), j varying over the j-group => AG over j restores the
  // coarse col chunk k; AG over k then restores all columns.
  auto coarse_k = all_gather_lastdim(gj, env.grank, dx, wire);
  auto full_cols = all_gather_lastdim(gk, env.grank, coarse_k, wire);
  // rows sub-chunk k within my rows chunk i => global rows chunk i*l + k;
  // cols chunk j.
  auto rows_sub = t::chunk(full_cols, 0, l, k);
  return t::chunk(rows_sub, 1, l, j);
}

t::Tensor Tokens3D::forward(const t::Tensor& x) {
  const std::int64_t b = x.dim(0), s = x.dim(1);
  auto y = layer_->forward(x.reshape(t::Shape{b * s, x.dim(2)}));
  auto h = convert_3d_y_to_x(env_, y);
  return h.reshape(t::Shape{b, s, h.dim(1)});
}

t::Tensor Tokens3D::backward(const t::Tensor& dy) {
  const std::int64_t b = dy.dim(0), s = dy.dim(1);
  auto dx = layer_->backward(
      convert_3d_x_to_y(env_, dy.reshape(t::Shape{b * s, dy.dim(2)})));
  return dx.reshape(t::Shape{b, s, dx.dim(1)});
}

void Linear3D::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&weight_);
  if (with_bias_) out.push_back(&bias_);
}

// ---- Mlp3D ----------------------------------------------------------------------

Mlp3D::Mlp3D(const Env& env, std::string name, std::int64_t hidden,
             std::int64_t ffn_hidden, std::uint64_t seed)
    : MlpBody({std::make_unique<Linear3D>(env, name + ".fc1", hidden,
                                          ffn_hidden, seed),
               std::make_unique<Linear3D>(env, name + ".fc2", ffn_hidden,
                                          hidden, seed + 1),
               std::make_unique<Convert3D>(env)}) {}

}  // namespace ca::tp
