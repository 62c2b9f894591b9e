#include "models/vit.hpp"

#include <cassert>

#include "models/layout_utils.hpp"
#include "sp/ring_attention.hpp"
#include "tp/comm_helpers.hpp"
#include "tp/linear1d.hpp"

namespace ca::models {

namespace t = ca::tensor;

VitClassifier::VitClassifier(Config cfg) : cfg_(cfg) {
  embed_ = std::make_unique<nn::Linear>("embed", cfg.patch_dim, cfg.hidden,
                                        cfg.seed);
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        "block" + std::to_string(l), cfg.hidden, cfg.heads, cfg.ffn,
        cfg.seed + 1000 * (l + 1)));
  }
  final_ln_ = std::make_unique<nn::LayerNorm>("final_ln", cfg.hidden);
  head_ = std::make_unique<nn::Linear>("head", cfg.hidden, cfg.classes,
                                       cfg.seed + 999);
}

VitClassifier::VitClassifier(const tp::Env& env, Mode mode, Config cfg)
    : cfg_(cfg), mode_(mode), env_(env) {
  embed_ = std::make_unique<nn::Linear>("embed", cfg.patch_dim, cfg.hidden,
                                        cfg.seed);
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    const std::string name = "block" + std::to_string(l);
    const std::uint64_t seed = cfg.seed + 1000 * (l + 1);
    switch (mode) {
      case Mode::kSerial:
        blocks_.push_back(std::make_unique<nn::TransformerBlock>(
            name, cfg.hidden, cfg.heads, cfg.ffn, seed));
        break;
      case Mode::kTensor1D:
        blocks_.push_back(std::make_unique<tp::TransformerBlock1D>(
            env, name, cfg.hidden, cfg.heads, cfg.ffn, seed));
        break;
      case Mode::kSequence:
        blocks_.push_back(std::make_unique<ca::sp::TransformerBlockSP>(
            env, name, cfg.hidden, cfg.heads, cfg.ffn, seed));
        break;
    }
  }
  final_ln_ = std::make_unique<nn::LayerNorm>("final_ln", cfg.hidden);
  head_ = std::make_unique<nn::Linear>("head", cfg.hidden, cfg.classes,
                                       cfg.seed + 999);
}

VitClassifier::~VitClassifier() = default;

t::Tensor VitClassifier::logits(const t::Tensor& x) {
  assert(x.ndim() == 3 && x.dim(1) == cfg_.patches &&
         x.dim(2) == cfg_.patch_dim);
  saved_batch_ = x.dim(0);

  // sequence parallelism: keep only this rank's sub-sequence
  t::Tensor x_local = x;
  if (mode_ == Mode::kSequence) {
    auto& g = env_->ctx->sequence_group(env_->grank);
    x_local = t::chunk(x, 1, g.size(), g.index_of(env_->grank));
  }

  auto h = embed_->forward(x_local);
  for (auto& blk : blocks_) h = blk->forward(h);
  saved_tokens_ = final_ln_->forward(h);

  // mean-pool over the (full) sequence; SP ranks hold partial sums
  auto pooled = detail::mean_pool(saved_tokens_, cfg_.patches);
  if (mode_ == Mode::kSequence) {
    auto& g = env_->ctx->sequence_group(env_->grank);
    // sum the partial means over the configured wire dtype
    g.all_reduce(env_->grank, pooled.data(), 1.0f, env_->ctx->comm_dtype());
  }
  return head_->forward(pooled);
}

float VitClassifier::train_batch(const t::Tensor& x,
                                 std::span<const std::int64_t> labels) {
  auto lg = logits(x);
  t::Tensor dl;
  const float loss = t::cross_entropy(lg, labels, dl);

  auto dpooled = head_->backward(dl);  // (b, h), replicated in every mode
  // mean-pool backward: every (local) token gets dpooled / patches
  auto dtokens = detail::unpool(dpooled, saved_tokens_.dim(1), cfg_.patches);

  auto g = final_ln_->backward(dtokens);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
    g = (*it)->backward(g);
  embed_->backward(g);

  // SP: embed/final-LN grads are per-sub-sequence partials; head grads are
  // already full (its input was replicated after the pooled all-reduce).
  if (mode_ == Mode::kSequence) {
    auto& grp = env_->ctx->sequence_group(env_->grank);
    std::vector<nn::Parameter*> partial;
    embed_->collect_parameters(partial);
    final_ln_->collect_parameters(partial);
    for (nn::Parameter* p : partial)
      grp.all_reduce(env_->grank, p->grad.data(), 1.0f,
                     env_->ctx->comm_dtype());
  }
  return loss;
}

float VitClassifier::eval_accuracy(const t::Tensor& x,
                                   std::span<const std::int64_t> labels) {
  auto pred = t::argmax_rows(logits(x));
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (pred[i] == labels[i]) ++hits;
  return static_cast<float>(hits) / static_cast<float>(labels.size());
}

std::vector<nn::Parameter*> VitClassifier::parameters() {
  std::vector<nn::Parameter*> out;
  embed_->collect_parameters(out);
  for (auto& b : blocks_) b->collect_parameters(out);
  final_ln_->collect_parameters(out);
  head_->collect_parameters(out);
  return out;
}

}  // namespace ca::models
