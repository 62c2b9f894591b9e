#include "sp/ring_attention.hpp"

#include <cassert>

#include "tp/comm_helpers.hpp"

namespace ca::sp {

namespace t = ca::tensor;

namespace {
constexpr std::int64_t kF = 4;

/// All-reduce the delta of a parameter's grad across `g` (keeps gradient
/// accumulation over multiple backwards correct). The delta rides the
/// configured wire dtype; the accumulated base stays untouched fp32.
void sync_grad_delta(collective::Group& g, int grank, nn::Parameter& p,
                     const t::Tensor& before, t::Dtype wire) {
  auto delta = t::sub(p.grad, before);
  g.all_reduce(grank, delta.data(), 1.0f, wire);
  p.grad = t::add(before, delta);
}
}  // namespace

RingAttention::RingAttention(const tp::Env& env, std::string name,
                             std::int64_t hidden, std::int64_t heads,
                             std::uint64_t seed)
    : env_(env),
      hidden_(hidden),
      heads_(heads),
      qkv_(name + ".qkv", hidden, 3 * hidden, seed),
      proj_(name + ".proj", hidden, hidden, seed + 1),
      acts_(env.mem()) {
  assert(hidden % heads == 0);
  // replicated parameters + gradients
  param_bytes_ = 2 * (qkv_.weight().numel() + qkv_.bias()->numel() +
                      proj_.weight().numel() + proj_.bias()->numel()) * kF;
  env_.mem().alloc(param_bytes_);
}

RingAttention::~RingAttention() { env_.mem().free(param_bytes_); }

t::Tensor RingAttention::ring_collect(const t::Tensor& local) {
  auto& g = env_.ctx->sequence_group(env_.grank);
  const int p = g.size();
  if (p == 1) return local.clone();
  const int idx = g.index_of(env_.grank);

  std::vector<t::Tensor> chunks(static_cast<std::size_t>(p));
  chunks[static_cast<std::size_t>(idx)] = local.clone();
  t::Tensor buf = local.clone();
  // The real implementation keeps only the resident chunk and the incoming
  // one; account those two, while the host-side assembly below keeps all
  // chunks for the (numerically identical) dense computation.
  sim::ScopedAlloc stream(env_.mem(), 2 * local.numel() * kF);
  for (int step = 1; step < p; ++step) {
    buf = ring_pass(env_.ctx->backend(), g.ranks(), env_.grank, buf);
    const int src = (idx - step + p) % p;
    chunks[static_cast<std::size_t>(src)] = buf.clone();
  }
  return t::cat(chunks, 1);
}

t::Tensor RingAttention::forward(const t::Tensor& x) {
  auto& g = env_.ctx->sequence_group(env_.grank);
  assert(x.ndim() == 3 && x.dim(2) == hidden_);
  acts_.hold(x.numel() * kF);

  auto qkv = nn::split_qkv(qkv_.forward(x), heads_);  // (B, sc, d) each
  acts_.hold(3 * qkv.q.numel() * kF);

  // Ring Self-Attention: circulate K then V partials around the ring.
  qkv.k = ring_collect(qkv.k);  // (B, s, d)
  qkv.v = ring_collect(qkv.v);
  auto ctx = core_.forward(std::move(qkv));  // (B, sc, d)
  acts_.hold(core_.probs().numel() * kF);

  const std::int64_t b = x.dim(0), sc = x.dim(1);
  const std::int64_t s_full = sc * g.size();
  env_.dev().compute_fp32(2.0 * b * sc * hidden_ * 4.0 * hidden_ +
                          4.0 * static_cast<double>(b) * heads_ * sc * s_full *
                              ctx.dim(2));

  auto y = proj_.forward(nn::merge_heads(ctx, heads_));
  acts_.hold(y.numel() * kF);
  return y;
}

t::Tensor RingAttention::backward(const t::Tensor& dy) {
  auto& g = env_.ctx->sequence_group(env_.grank);
  const int p = g.size();
  const int idx = g.index_of(env_.grank);
  const std::int64_t sc = dy.dim(1);

  auto qkv_w_before = qkv_.weight().grad.clone();
  auto qkv_b_before = qkv_.bias()->grad.clone();
  auto proj_w_before = proj_.weight().grad.clone();
  auto proj_b_before = proj_.bias()->grad.clone();

  // dq: (B, sc, d); dk, dv: (B, s, d) over the full sequence
  auto d = core_.backward(nn::split_heads(proj_.backward(dy), heads_));

  // Route each rank's dK / dV chunk back to its owner (reverse ring).
  t::Tensor dk_local, dv_local;
  for (int j = 0; j < p; ++j) {
    auto dk_j = t::narrow(d.k, 1, j * sc, sc);
    auto dv_j = t::narrow(d.v, 1, j * sc, sc);
    g.reduce(env_.grank, dk_j.data(), j);
    g.reduce(env_.grank, dv_j.data(), j);
    if (j == idx) {
      dk_local = dk_j;
      dv_local = dv_j;
    }
  }
  d.k = std::move(dk_local);
  d.v = std::move(dv_local);
  auto dx = qkv_.backward(nn::merge_qkv(d, heads_));

  env_.dev().compute_fp32(4.0 * dx.numel() * 4.0 * hidden_ +
                          8.0 * static_cast<double>(core_.probs().numel()) *
                              d.q.dim(2));

  // replicated weights: data-parallel-style gradient synchronization
  const t::Dtype wire = env_.ctx->comm_dtype();
  sync_grad_delta(g, env_.grank, qkv_.weight(), qkv_w_before, wire);
  sync_grad_delta(g, env_.grank, *qkv_.bias(), qkv_b_before, wire);
  sync_grad_delta(g, env_.grank, proj_.weight(), proj_w_before, wire);
  sync_grad_delta(g, env_.grank, *proj_.bias(), proj_b_before, wire);

  acts_.release_all();
  return dx;
}

void RingAttention::collect_parameters(std::vector<nn::Parameter*>& out) {
  qkv_.collect_parameters(out);
  proj_.collect_parameters(out);
}

// ---- TransformerBlockSP ------------------------------------------------------------

TransformerBlockSP::TransformerBlockSP(const tp::Env& env, std::string name,
                                       std::int64_t hidden, std::int64_t heads,
                                       std::int64_t ffn_hidden,
                                       std::uint64_t seed)
    : PreLNBlock({std::make_unique<nn::LayerNorm>(name + ".ln1", hidden),
                  std::make_unique<RingAttention>(env, name + ".attn", hidden,
                                                  heads, seed),
                  std::make_unique<nn::LayerNorm>(name + ".ln2", hidden),
                  std::make_unique<nn::Mlp>(name + ".mlp", hidden, ffn_hidden,
                                            seed + 100)}),
      env_(env) {}

t::Tensor TransformerBlockSP::backward(const t::Tensor& dy) {
  auto& g = env_.ctx->sequence_group(env_.grank);

  std::vector<nn::Parameter*> local;  // replicated params needing sync
  parts().ln1->collect_parameters(local);
  parts().ln2->collect_parameters(local);
  parts().mlp->collect_parameters(local);
  std::vector<t::Tensor> before;
  before.reserve(local.size());
  for (nn::Parameter* pp : local) before.push_back(pp->grad.clone());

  auto dx = PreLNBlock::backward(dy);

  const t::Dtype wire = env_.ctx->comm_dtype();
  for (std::size_t i = 0; i < local.size(); ++i)
    sync_grad_delta(g, env_.grank, *local[i], before[i], wire);
  return dx;
}

}  // namespace ca::sp
