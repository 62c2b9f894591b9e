#include "nn/layers.hpp"

#include <cassert>
#include <cmath>

namespace ca::nn {

namespace t = ca::tensor;

// ---- Linear -----------------------------------------------------------------

Linear::Linear(std::string name, std::int64_t in, std::int64_t out,
               std::uint64_t seed, bool with_bias)
    : in_(in),
      out_(out),
      with_bias_(with_bias),
      weight_(name + ".weight",
              t::randn(t::Shape{in, out}, seed, 0.0f,
                       1.0f / std::sqrt(static_cast<float>(in)))),
      bias_(name + ".bias", t::zeros(t::Shape{out})) {}

t::Tensor Linear::forward(const t::Tensor& x) {
  assert(x.dim(-1) == in_);
  saved_x_ = x;
  auto y = t::matmul(x, weight_.value);
  if (with_bias_) t::add_bias_(y, bias_.value);
  return y;
}

t::Tensor Linear::backward(const t::Tensor& dy) {
  assert(dy.dim(-1) == out_);
  // dW += x^T dy with leading dims of x collapsed into rows
  auto dw = t::matmul_tn(saved_x_, dy);
  t::add_(weight_.grad, dw);
  if (with_bias_) t::add_(bias_.grad, t::sum_to_lastdim(dy));
  // dx = dy W^T
  return t::matmul_nt(dy, weight_.value);
}

t::Tensor Linear::backward_input(const t::Tensor& dy) {
  assert(dy.dim(-1) == out_);
  // Stash what wgrad needs before a recompute for another micro-batch
  // overwrites saved_x_. Shallow handles: no data copy.
  wgrad_queue_.push_back({saved_x_, dy});
  return t::matmul_nt(dy, weight_.value);
}

void Linear::backward_weight() {
  assert(!wgrad_queue_.empty());
  WgradStash s = std::move(wgrad_queue_.front());
  wgrad_queue_.pop_front();
  auto dw = t::matmul_tn(s.x, s.dy);
  t::add_(weight_.grad, dw);
  if (with_bias_) t::add_(bias_.grad, t::sum_to_lastdim(s.dy));
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (with_bias_) out.push_back(&bias_);
}

// ---- activations --------------------------------------------------------------

t::Tensor Gelu::forward(const t::Tensor& x) {
  saved_x_ = x;
  return t::gelu(x);
}
t::Tensor Gelu::backward(const t::Tensor& dy) {
  return t::gelu_backward(saved_x_, dy);
}

t::Tensor Relu::forward(const t::Tensor& x) {
  saved_x_ = x;
  return t::relu(x);
}
t::Tensor Relu::backward(const t::Tensor& dy) {
  return t::relu_backward(saved_x_, dy);
}

// ---- LayerNorm -----------------------------------------------------------------

LayerNorm::LayerNorm(std::string name, std::int64_t hidden, float eps)
    : hidden_(hidden),
      eps_(eps),
      gamma_(name + ".gamma", t::ones(t::Shape{hidden})),
      beta_(name + ".beta", t::zeros(t::Shape{hidden})) {}

t::Tensor LayerNorm::forward(const t::Tensor& x) {
  assert(x.dim(-1) == hidden_);
  saved_x_ = x;
  return t::layernorm_forward(x, gamma_.value, beta_.value, eps_, saved_mean_,
                              saved_rstd_);
}

t::Tensor LayerNorm::backward(const t::Tensor& dy) {
  return t::layernorm_backward(saved_x_, dy, gamma_.value, saved_mean_,
                               saved_rstd_, gamma_.grad, beta_.grad);
}

void LayerNorm::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

// ---- Embedding -----------------------------------------------------------------

Embedding::Embedding(std::string name, std::int64_t vocab, std::int64_t hidden,
                     std::uint64_t seed)
    : vocab_(vocab),
      hidden_(hidden),
      table_(name + ".table", t::randn(t::Shape{vocab, hidden}, seed, 0.0f, 0.02f)) {}

t::Tensor Embedding::forward(std::span<const std::int64_t> ids) {
  saved_ids_.assign(ids.begin(), ids.end());
  t::Tensor out(t::Shape{static_cast<std::int64_t>(ids.size()), hidden_});
  auto po = out.data();
  auto pt = table_.value.data();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::int64_t id = ids[i];
    assert(id >= 0 && id < vocab_);
    std::copy(pt.data() + id * hidden_, pt.data() + (id + 1) * hidden_,
              po.data() + static_cast<std::int64_t>(i) * hidden_);
  }
  return out;
}

void Embedding::backward(const t::Tensor& dy) {
  assert(dy.numel() ==
         static_cast<std::int64_t>(saved_ids_.size()) * hidden_);
  auto pg = table_.grad.data();
  auto pd = dy.data();
  for (std::size_t i = 0; i < saved_ids_.size(); ++i) {
    const std::int64_t id = saved_ids_[i];
    float* grow = pg.data() + id * hidden_;
    const float* drow = pd.data() + static_cast<std::int64_t>(i) * hidden_;
    for (std::int64_t c = 0; c < hidden_; ++c) grow[c] += drow[c];
  }
}

// ---- head reshaping helpers ----------------------------------------------------

t::Tensor split_heads(const t::Tensor& x, std::int64_t heads) {
  assert(x.ndim() == 3);
  const std::int64_t b = x.dim(0), s = x.dim(1), h = x.dim(2);
  assert(h % heads == 0);
  const std::int64_t d = h / heads;
  t::Tensor out(t::Shape{b * heads, s, d});
  auto px = x.data();
  auto po = out.data();
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t si = 0; si < s; ++si)
      for (std::int64_t hd = 0; hd < heads; ++hd) {
        const float* src = px.data() + (bi * s + si) * h + hd * d;
        float* dst = po.data() + ((bi * heads + hd) * s + si) * d;
        std::copy(src, src + d, dst);
      }
  return out;
}

t::Tensor merge_heads(const t::Tensor& x, std::int64_t heads) {
  assert(x.ndim() == 3);
  const std::int64_t bh = x.dim(0), s = x.dim(1), d = x.dim(2);
  assert(bh % heads == 0);
  const std::int64_t b = bh / heads;
  t::Tensor out(t::Shape{b, s, heads * d});
  auto px = x.data();
  auto po = out.data();
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t si = 0; si < s; ++si)
      for (std::int64_t hd = 0; hd < heads; ++hd) {
        const float* src = px.data() + ((bi * heads + hd) * s + si) * d;
        float* dst = po.data() + (bi * s + si) * heads * d + hd * d;
        std::copy(src, src + d, dst);
      }
  return out;
}

Qkv split_qkv(const t::Tensor& qkv, std::int64_t heads) {
  return {split_heads(t::chunk(qkv, -1, 3, 0), heads),
          split_heads(t::chunk(qkv, -1, 3, 1), heads),
          split_heads(t::chunk(qkv, -1, 3, 2), heads)};
}

t::Tensor merge_qkv(const Qkv& d, std::int64_t heads) {
  return t::cat(std::vector<t::Tensor>{merge_heads(d.q, heads),
                                       merge_heads(d.k, heads),
                                       merge_heads(d.v, heads)},
                -1);
}

// ---- AttentionCore --------------------------------------------------------------

namespace {
float attention_scale(const t::Tensor& q) {
  return 1.0f / std::sqrt(static_cast<float>(q.dim(-1)));
}
}  // namespace

t::Tensor AttentionCore::forward(Qkv qkv) {
  saved_ = std::move(qkv);
  auto scores = t::bmm_nt(saved_.q, saved_.k);  // (B, sq, skv)
  probs_ = t::softmax_lastdim_scaled(scores, attention_scale(saved_.q));
  return t::bmm(probs_, saved_.v);  // (B, sq, d)
}

Qkv AttentionCore::backward(const t::Tensor& dctx) {
  // ctx = probs @ v
  auto dprobs = t::bmm_nt(dctx, saved_.v);
  auto dv = t::bmm_tn(probs_, dctx);
  auto dscores =
      t::softmax_backward_scaled(probs_, dprobs, attention_scale(saved_.q));
  // scores = q @ k^T
  auto dq = t::bmm(dscores, saved_.k);
  auto dk = t::bmm_tn(dscores, saved_.q);
  return {std::move(dq), std::move(dk), std::move(dv)};
}

// ---- MultiHeadAttention ---------------------------------------------------------

MultiHeadAttention::MultiHeadAttention(std::string name, std::int64_t hidden,
                                       std::int64_t heads, std::uint64_t seed)
    : heads_(heads),
      qkv_(name + ".qkv", hidden, 3 * hidden, seed),
      proj_(name + ".proj", hidden, hidden, seed + 1) {
  assert(hidden % heads == 0);
}

t::Tensor MultiHeadAttention::forward(const t::Tensor& x) {
  assert(x.ndim() == 3 && x.dim(2) == qkv_.in_features());
  auto ctx = core_.forward(split_qkv(qkv_.forward(x), heads_));
  return proj_.forward(merge_heads(ctx, heads_));
}

t::Tensor MultiHeadAttention::backward(const t::Tensor& dy) {
  auto dctx = split_heads(proj_.backward(dy), heads_);
  return qkv_.backward(merge_qkv(core_.backward(dctx), heads_));
}

void MultiHeadAttention::collect_parameters(std::vector<Parameter*>& out) {
  qkv_.collect_parameters(out);
  proj_.collect_parameters(out);
}

// ---- Mlp -----------------------------------------------------------------------

t::Tensor MlpBody::forward(const t::Tensor& x) {
  auto& p = parts_;
  auto h = act_.forward(p.fc1->forward(x));
  if (p.convert) h = p.convert->forward(h);
  return p.fc2->forward(h);
}

t::Tensor MlpBody::backward(const t::Tensor& dy) {
  auto& p = parts_;
  auto dh = p.fc2->backward(dy);
  if (p.convert) dh = p.convert->backward(dh);
  return p.fc1->backward(act_.backward(dh));
}

void MlpBody::collect_parameters(std::vector<Parameter*>& out) {
  parts_.fc1->collect_parameters(out);
  parts_.fc2->collect_parameters(out);
}

Mlp::Mlp(std::string name, std::int64_t hidden, std::int64_t ffn_hidden,
         std::uint64_t seed)
    : MlpBody({std::make_unique<Linear>(name + ".fc1", hidden, ffn_hidden,
                                        seed),
               std::make_unique<Linear>(name + ".fc2", ffn_hidden, hidden,
                                        seed + 1)}) {}

// ---- PreLNBlock ------------------------------------------------------------------

t::Tensor PreLNBlock::forward(const t::Tensor& x) {
  auto& p = parts_;
  auto h = t::add(x, p.attn->forward(p.ln1->forward(x)));
  return t::add(h, p.mlp->forward(p.ln2->forward(h)));
}

t::Tensor PreLNBlock::backward(const t::Tensor& dy) {
  auto& p = parts_;
  // y = h + mlp(ln2(h)); dy flows both through the residual and the branch
  auto dh = t::add(dy, p.ln2->backward(p.mlp->backward(dy)));
  return t::add(dh, p.ln1->backward(p.attn->backward(dh)));
}

void PreLNBlock::collect_parameters(std::vector<Parameter*>& out) {
  for (Module* m : {parts_.ln1.get(), parts_.attn.get(), parts_.ln2.get(),
                    parts_.mlp.get()}) {
    m->collect_parameters(out);
  }
}

TransformerBlock::TransformerBlock(std::string name, std::int64_t hidden,
                                   std::int64_t heads, std::int64_t ffn_hidden,
                                   std::uint64_t seed)
    : PreLNBlock({std::make_unique<LayerNorm>(name + ".ln1", hidden),
                  std::make_unique<MultiHeadAttention>(name + ".attn", hidden,
                                                       heads, seed),
                  std::make_unique<LayerNorm>(name + ".ln2", hidden),
                  std::make_unique<Mlp>(name + ".mlp", hidden, ffn_hidden,
                                        seed + 100)}) {}

}  // namespace ca::nn
