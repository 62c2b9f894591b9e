#include "tp/linear1d.hpp"

#include <cassert>

#include "tp/relayout.hpp"

namespace ca::tp {

namespace t = ca::tensor;

namespace {
constexpr std::int64_t kF = 4;  // bytes per fp32 element
int tp_size(const Env& env) { return env.ctx->tensor_group(env.grank).size(); }
int tp_index(const Env& env) {
  return env.ctx->tensor_group(env.grank).index_of(env.grank);
}
}  // namespace

// ---- Linear1DCol ---------------------------------------------------------------

Linear1DCol::Linear1DCol(const Env& env, std::string name, std::int64_t in,
                         std::int64_t out, std::uint64_t seed,
                         bool gather_output, bool with_bias)
    : env_(env),
      in_(in),
      out_(out),
      gather_output_(gather_output),
      with_bias_(with_bias),
      weight_(shard_parameter(name + ".weight", serial_weight(in, out, seed),
                              {in, out, 1, 0, tp_size(env), tp_index(env)})),
      bias_(shard_parameter(name + ".bias", t::zeros(t::Shape{out}),
                            {out, 0, tp_size(env), tp_index(env)})),
      footprint_(env.mem(),
                 param_footprint({&weight_, with_bias ? &bias_ : nullptr})),
      acts_(env.mem()) {}

t::Tensor Linear1DCol::forward(const t::Tensor& x) {
  auto& g = env_.ctx->tensor_group(env_.grank);
  saved_x_ = x;
  acts_.hold(x.numel() * kF);
  auto y = t::matmul(x, weight_.value);
  if (with_bias_) t::add_bias_(y, bias_.value);
  env_.dev().compute_fp32(2.0 * static_cast<double>(x.numel()) *
                          static_cast<double>(weight_.value.dim(1)));
  acts_.hold(y.numel() * kF);
  if (!gather_output_) return y;
  auto full = all_gather_lastdim(g, env_.grank, y, env_.ctx->comm_dtype());
  acts_.hold(full.numel() * kF);
  return full;
}

t::Tensor Linear1DCol::backward(const t::Tensor& dy_in) {
  auto& g = env_.ctx->tensor_group(env_.grank);
  t::Tensor dy = gather_output_ ? my_chunk_lastdim(g, env_.grank, dy_in) : dy_in;
  t::add_(weight_.grad, t::matmul_tn(saved_x_, dy));
  if (with_bias_) t::add_(bias_.grad, t::sum_to_lastdim(dy));
  auto dx = t::matmul_nt(dy, weight_.value);
  env_.dev().compute_fp32(4.0 * static_cast<double>(saved_x_.numel()) *
                          static_cast<double>(weight_.value.dim(1)));
  // input was replicated and each rank used only its weight columns, so the
  // input gradient is a partial sum — the 1D backward all-reduce.
  all_reduce(g, env_.grank, dx, env_.ctx->comm_dtype());
  acts_.release_all();
  return dx;
}

void Linear1DCol::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&weight_);
  if (with_bias_) out.push_back(&bias_);
}

// ---- Linear1DRow ---------------------------------------------------------------

Linear1DRow::Linear1DRow(const Env& env, std::string name, std::int64_t in,
                         std::int64_t out, std::uint64_t seed, bool with_bias)
    : env_(env),
      in_(in),
      out_(out),
      with_bias_(with_bias),
      weight_(shard_parameter(name + ".weight", serial_weight(in, out, seed),
                              {in, out, tp_size(env), tp_index(env), 1, 0})),
      // bias is replicated: rank 0 of the group is the gather primary
      bias_(shard_parameter(name + ".bias", t::zeros(t::Shape{out}),
                            {out, 0, 1, 0, 1, 0, 1, tp_index(env) == 0})),
      footprint_(env.mem(),
                 param_footprint({&weight_, with_bias ? &bias_ : nullptr})),
      acts_(env.mem()) {}

t::Tensor Linear1DRow::forward(const t::Tensor& x) {
  auto& g = env_.ctx->tensor_group(env_.grank);
  assert(x.dim(-1) == weight_.value.dim(0));
  saved_x_ = x;
  acts_.hold(x.numel() * kF);
  auto y = t::matmul(x, weight_.value);
  env_.dev().compute_fp32(2.0 * static_cast<double>(x.numel()) *
                          static_cast<double>(out_));
  // the Figure 4 forward all-reduce, over the configured wire dtype
  all_reduce(g, env_.grank, y, env_.ctx->comm_dtype());
  if (with_bias_) t::add_bias_(y, bias_.value);
  acts_.hold(y.numel() * kF);
  return y;
}

t::Tensor Linear1DRow::backward(const t::Tensor& dy) {
  t::add_(weight_.grad, t::matmul_tn(saved_x_, dy));
  // bias is replicated and dy is identical on every rank, so each rank's
  // local db already equals the full gradient.
  if (with_bias_) t::add_(bias_.grad, t::sum_to_lastdim(dy));
  auto dx = t::matmul_nt(dy, weight_.value);  // (…, in/p), no comm needed
  env_.dev().compute_fp32(4.0 * static_cast<double>(saved_x_.numel()) *
                          static_cast<double>(out_));
  acts_.release_all();
  return dx;
}

void Linear1DRow::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&weight_);
  if (with_bias_) out.push_back(&bias_);
}

// ---- Mlp1D ----------------------------------------------------------------------

Mlp1D::Mlp1D(const Env& env, std::string name, std::int64_t hidden,
             std::int64_t ffn_hidden, std::uint64_t seed)
    : MlpBody({std::make_unique<Linear1DCol>(env, name + ".fc1", hidden,
                                             ffn_hidden, seed,
                                             /*gather_output=*/false),
               std::make_unique<Linear1DRow>(env, name + ".fc2", ffn_hidden,
                                             hidden, seed + 1)}) {}

// ---- Attention1D -----------------------------------------------------------------

Attention1D::Attention1D(const Env& env, std::string name, std::int64_t hidden,
                         std::int64_t heads, std::uint64_t seed)
    : env_(env),
      hidden_(hidden),
      local_heads_(heads / tp_size(env)),
      head_dim_(hidden / heads),
      local_hidden_(hidden / tp_size(env)),
      // The fused qkv store is three independent column partitions ([q|k|v]
      // slices), hence col_sections = 3.
      qkv_weight_(shard_parameter(
          name + ".qkv.weight", serial_weight(hidden, 3 * hidden, seed),
          {hidden, 3 * hidden, 1, 0, tp_size(env), tp_index(env), 3})),
      qkv_bias_(shard_parameter(name + ".qkv.bias",
                                t::zeros(t::Shape{3 * hidden}),
                                {3 * hidden, 0, tp_size(env), tp_index(env), 1,
                                 0, 3})),
      proj_weight_(shard_parameter(
          name + ".proj.weight", serial_weight(hidden, hidden, seed + 1),
          {hidden, hidden, tp_size(env), tp_index(env), 1, 0})),
      proj_bias_(shard_parameter(name + ".proj.bias",
                                 t::zeros(t::Shape{hidden}),
                                 {hidden, 0, 1, 0, 1, 0, 1, tp_index(env) == 0})),
      footprint_(env.mem(), param_footprint({&qkv_weight_, &qkv_bias_,
                                             &proj_weight_, &proj_bias_})),
      acts_(env.mem()) {
  assert(hidden % heads == 0);
  assert(heads % tp_size(env) == 0 &&
         "1D attention requires #heads divisible by the parallel size");
}

t::Tensor Attention1D::forward(const t::Tensor& x) {
  auto& g = env_.ctx->tensor_group(env_.grank);
  assert(x.ndim() == 3 && x.dim(2) == hidden_);
  const std::int64_t b = x.dim(0), s = x.dim(1);
  saved_x_ = x;
  acts_.hold(x.numel() * kF);

  auto qkv = t::matmul(x, qkv_weight_.value);  // (b, s, 3*h/p)
  t::add_bias_(qkv, qkv_bias_.value);
  auto heads = nn::split_qkv(qkv, local_heads_);  // (b*lh, s, d) each
  acts_.hold(3 * heads.q.numel() * kF);
  auto ctx = core_.forward(std::move(heads));  // (b*lh, s, d)
  acts_.hold(core_.probs().numel() * kF);
  saved_merged_ = nn::merge_heads(ctx, local_heads_);  // (b, s, h/p)

  const double flops = 2.0 * static_cast<double>(b) * s * hidden_ *
                           (3.0 * local_hidden_ + local_hidden_) +
                       4.0 * static_cast<double>(b) * local_heads_ * s * s * head_dim_;
  env_.dev().compute_fp32(flops);

  auto y = t::matmul(saved_merged_, proj_weight_.value);  // (b, s, h) partial
  all_reduce(g, env_.grank, y, env_.ctx->comm_dtype());
  t::add_bias_(y, proj_bias_.value);
  acts_.hold(y.numel() * kF);
  return y;
}

t::Tensor Attention1D::backward(const t::Tensor& dy) {
  auto& g = env_.ctx->tensor_group(env_.grank);
  const std::int64_t b = saved_x_.dim(0), s = saved_x_.dim(1);
  // proj (row-parallel): dmerged = dy proj_w^T ; dproj_w = merged^T dy
  t::add_(proj_weight_.grad, t::matmul_tn(saved_merged_, dy));
  t::add_(proj_bias_.grad, t::sum_to_lastdim(dy));
  auto dmerged = t::matmul_nt(dy, proj_weight_.value);  // (b, s, h/p)
  // (b, s, 3h/p)
  auto dqkv = nn::merge_qkv(
      core_.backward(nn::split_heads(dmerged, local_heads_)), local_heads_);

  t::add_(qkv_weight_.grad, t::matmul_tn(saved_x_, dqkv));
  t::add_(qkv_bias_.grad, t::sum_to_lastdim(dqkv));
  auto dx = t::matmul_nt(dqkv, qkv_weight_.value);  // partial over q/k/v cols
  const double flops = 4.0 * static_cast<double>(saved_x_.numel()) *
                           (4.0 * local_hidden_) +
                       8.0 * static_cast<double>(b) * local_heads_ * s * s *
                           head_dim_;
  env_.dev().compute_fp32(flops);
  all_reduce(g, env_.grank, dx, env_.ctx->comm_dtype());  // 1D backward all-reduce
  acts_.release_all();
  return dx;
}

void Attention1D::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&qkv_weight_);
  out.push_back(&qkv_bias_);
  out.push_back(&proj_weight_);
  out.push_back(&proj_bias_);
}

// ---- TransformerBlock1D -----------------------------------------------------------

TransformerBlock1D::TransformerBlock1D(const Env& env, std::string name,
                                       std::int64_t hidden, std::int64_t heads,
                                       std::int64_t ffn_hidden,
                                       std::uint64_t seed)
    : PreLNBlock({std::make_unique<nn::LayerNorm>(name + ".ln1", hidden),
                  std::make_unique<Attention1D>(env, name + ".attn", hidden,
                                                heads, seed),
                  std::make_unique<nn::LayerNorm>(name + ".ln2", hidden),
                  std::make_unique<Mlp1D>(env, name + ".mlp", hidden,
                                          ffn_hidden, seed + 100)}) {}

}  // namespace ca::tp
