#include "models/gpt.hpp"

#include <cassert>

#include "tp/linear1d.hpp"
#include "tp/vocab_parallel.hpp"

namespace ca::models {

namespace t = ca::tensor;

GptModel::GptModel(Config cfg) : GptModel(nullptr, cfg) {}

GptModel::GptModel(const tp::Env& env, Config cfg) : GptModel(&env, cfg) {}

GptModel::GptModel(const tp::Env* env, Config cfg) : cfg_(cfg) {
  if (layout_for("GptModel", env, {Layout::kNone, Layout::k1d}) ==
      Layout::k1d) {
    env_ = *env;
    // Megatron: vocabulary-parallel token embedding
    vp_emb_ = std::make_unique<tp::VocabParallelEmbedding>(
        *env, "tok_emb", cfg.vocab, cfg.hidden, cfg.seed);
  } else {
    tok_emb_ = std::make_unique<nn::Embedding>("tok_emb", cfg.vocab,
                                               cfg.hidden, cfg.seed);
  }
  pos_emb_ = std::make_unique<nn::Embedding>("pos_emb", cfg.seq, cfg.hidden,
                                             cfg.seed + 1);
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    trunk_.add(make_block(env, "block" + std::to_string(l), cfg.hidden,
                          cfg.heads, cfg.ffn, cfg.seed + 1000 * (l + 1)));
  }
  trunk_.add(std::make_unique<nn::LayerNorm>("final_ln", cfg.hidden));
  if (env_) {
    // Megatron: column-parallel LM head; logits stay vocabulary-sharded
    head_ = std::make_unique<tp::Linear1DCol>(*env, "lm_head", cfg.hidden,
                                              cfg.vocab, cfg.seed + 999,
                                              /*gather_output=*/false);
  } else {
    head_ = std::make_unique<nn::Linear>("lm_head", cfg.hidden, cfg.vocab,
                                         cfg.seed + 999);
  }
}

GptModel::~GptModel() = default;

t::Tensor GptModel::forward_logits(std::span<const std::int64_t> ids,
                                   std::int64_t batch) {
  const auto seq = static_cast<std::int64_t>(ids.size()) / batch;
  assert(seq == cfg_.seq);
  std::vector<std::int64_t> positions(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    positions[i] = static_cast<std::int64_t>(i) % seq;

  auto h = tok_emb_ ? tok_emb_->forward(ids) : vp_emb_->forward(ids);
  t::add_(h, pos_emb_->forward(positions));
  auto hidden = trunk_.forward(h.reshape(t::Shape{batch, seq, cfg_.hidden}));
  return head_->forward(hidden.reshape(t::Shape{batch * seq, cfg_.hidden}));
}

/// The last position of every sequence has no next token, so its row is
/// dropped from the loss (and gets a zero gradient).
float GptModel::next_token_loss(const t::Tensor& logits,
                                std::span<const std::int64_t> tokens,
                                std::int64_t batch, t::Tensor* dl) {
  const std::int64_t seq = cfg_.seq;
  const std::int64_t rows = batch * seq;
  const std::int64_t kept = rows - batch;
  const std::int64_t vocab = logits.dim(1);  // V, or V/p under 1D
  t::Tensor kept_logits(t::Shape{kept, vocab});
  std::vector<std::int64_t> kept_targets;
  kept_targets.reserve(static_cast<std::size_t>(kept));
  auto pl = logits.data();
  auto pk = kept_logits.data();
  std::int64_t k = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    if ((r % seq) == seq - 1) continue;  // no next token
    std::copy(pl.data() + r * vocab, pl.data() + (r + 1) * vocab,
              pk.data() + k * vocab);
    kept_targets.push_back(tokens[static_cast<std::size_t>(r + 1)]);
    ++k;
  }
  t::Tensor dkept;
  const float loss =
      env_ ? tp::VocabParallelCrossEntropy(*env_).forward_backward(
                 kept_logits, kept_targets, dkept)
           : t::cross_entropy(kept_logits, kept_targets, dkept);
  if (dl != nullptr) {
    *dl = t::Tensor(logits.shape(), 0.0f);
    auto pd = dl->data();
    auto ps = dkept.data();
    k = 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      if ((r % seq) == seq - 1) continue;
      std::copy(ps.data() + k * vocab, ps.data() + (k + 1) * vocab,
                pd.data() + r * vocab);
      ++k;
    }
  }
  return loss;
}

float GptModel::train_batch(std::span<const std::int64_t> tokens,
                            std::int64_t batch) {
  const auto seq = cfg_.seq;
  t::Tensor dl;
  const float loss =
      next_token_loss(forward_logits(tokens, batch), tokens, batch, &dl);
  auto g = trunk_.backward(
      head_->backward(dl).reshape(t::Shape{batch, seq, cfg_.hidden}));
  auto flat = g.reshape(t::Shape{batch * seq, cfg_.hidden});
  if (tok_emb_) {
    tok_emb_->backward(flat);
  } else {
    vp_emb_->backward(flat);
  }
  pos_emb_->backward(flat);
  return loss;
}

float GptModel::eval_loss(std::span<const std::int64_t> tokens,
                          std::int64_t batch) {
  auto logits = forward_logits(tokens, batch);
  const float loss = next_token_loss(logits, tokens, batch, nullptr);
  // the 1D head holds activations until its backward; release them with a
  // zero gradient
  if (env_) head_->backward(t::Tensor(logits.shape(), 0.0f));
  return loss;
}

std::vector<nn::Parameter*> GptModel::parameters() {
  std::vector<nn::Parameter*> out{
      tok_emb_ ? &tok_emb_->table() : &vp_emb_->table(), &pos_emb_->table()};
  trunk_.collect_parameters(out);
  head_->collect_parameters(out);
  return out;
}

std::int64_t GptModel::num_params() {
  std::int64_t n = 0;
  for (nn::Parameter* p : parameters()) n += p->numel();
  return n;
}

}  // namespace ca::models
