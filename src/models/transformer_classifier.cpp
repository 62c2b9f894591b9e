#include "models/transformer_classifier.hpp"

#include <cassert>

#include "models/layout_utils.hpp"
#include "tp/block3d.hpp"
#include "tp/block_grid.hpp"
#include "tp/linear1d.hpp"

namespace ca::models {

namespace t = ca::tensor;

struct TransformerClassifier::Impl {
  Config cfg;
  core::TpMode mode = core::TpMode::kNone;
  std::optional<tp::Env> env;

  // the mode's linear (serial/1D: replicated nn::Linear; grid: Linear2p5D;
  // 3D: Linear3D)
  std::unique_ptr<nn::Module> embed;
  std::vector<std::unique_ptr<nn::Module>> blocks;
  std::unique_ptr<nn::Module> head;

  std::int64_t saved_local_seq = 0;

  t::Tensor shard_input(const t::Tensor& full) const {
    if (core::is_grid(mode)) return tp::shard_tokens(full, *env);
    if (mode == core::TpMode::k3d) {
      auto& ctx = *env->ctx;
      return tp::shard_tokens_3d(full, ctx.grid_side(), ctx.cube_i(env->grank),
                                 ctx.cube_j(env->grank),
                                 ctx.cube_k(env->grank));
    }
    return full.clone();
  }

  t::Tensor gather_logits(const t::Tensor& local) const {
    return env ? detail::gather_logits(*env, mode, local) : local;
  }

  t::Tensor shard_dlogits(const t::Tensor& full) const {
    return env ? detail::shard_logits(*env, mode, full) : full;
  }

  // ---- forward / backward ----------------------------------------------------

  t::Tensor forward(const t::Tensor& x_full) {
    auto x = shard_input(x_full);
    const std::int64_t b = x.dim(0), s = x.dim(1), f = x.dim(2);
    saved_local_seq = s;

    t::Tensor h;
    if (mode == core::TpMode::k3d) {
      // Linear3D takes 2-d input and emits its Y layout; blocks want X.
      const int l = env->ctx->grid_side();
      auto y = embed->forward(x.reshape(t::Shape{b * s, f}));
      h = tp::convert_3d_y_to_x(*env, y).reshape(
          t::Shape{b, s, cfg.hidden / (l * l)});
    } else {
      h = embed->forward(x);
    }
    for (auto& blk : blocks) h = blk->forward(h);
    return head->forward(detail::mean_pool(h, cfg.patches));
  }

  void backward(const t::Tensor& dlogits_local) {
    const std::int64_t s = saved_local_seq;
    auto g = detail::unpool(head->backward(dlogits_local), s, cfg.patches);
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it)
      g = (*it)->backward(g);
    if (mode == core::TpMode::k3d) {
      const std::int64_t b = g.dim(0), hc = g.dim(2);
      g = tp::convert_3d_x_to_y(*env, g.reshape(t::Shape{b * s, hc}));
    }
    embed->backward(g);
  }

  std::vector<nn::Parameter*> parameters() {
    std::vector<nn::Parameter*> out;
    embed->collect_parameters(out);
    for (auto& b : blocks) b->collect_parameters(out);
    head->collect_parameters(out);
    return out;
  }
};

TransformerClassifier::TransformerClassifier(Config cfg)
    : impl_(std::make_unique<Impl>()) {
  impl_->cfg = cfg;
  impl_->embed =
      std::make_unique<nn::Linear>("embed", cfg.patch_dim, cfg.hidden, cfg.seed);
  for (std::int64_t b = 0; b < cfg.blocks; ++b) {
    impl_->blocks.push_back(std::make_unique<nn::TransformerBlock>(
        "block" + std::to_string(b), cfg.hidden, cfg.heads, cfg.ffn,
        cfg.seed + 1000 * (b + 1)));
  }
  impl_->head = std::make_unique<nn::Linear>("head", cfg.hidden, cfg.classes,
                                             cfg.seed + 999);
}

TransformerClassifier::TransformerClassifier(const tp::Env& env, Config cfg)
    : impl_(std::make_unique<Impl>()) {
  impl_->cfg = cfg;
  impl_->mode = env.ctx->config().tensor_mode;
  impl_->env = env;
  auto& I = *impl_;

  for (std::int64_t b = 0; b < cfg.blocks; ++b) {
    const std::string name = "block" + std::to_string(b);
    const std::uint64_t seed = cfg.seed + 1000 * (b + 1);
    if (core::is_grid(I.mode)) {
      I.blocks.push_back(std::make_unique<tp::GridTransformerBlock>(
          env, name, cfg.hidden, cfg.heads, cfg.ffn, seed));
    } else if (I.mode == core::TpMode::k3d) {
      I.blocks.push_back(std::make_unique<tp::TransformerBlock3D>(
          env, name, cfg.hidden, cfg.heads, cfg.ffn, seed));
    } else if (I.mode == core::TpMode::k1d) {
      I.blocks.push_back(std::make_unique<tp::TransformerBlock1D>(
          env, name, cfg.hidden, cfg.heads, cfg.ffn, seed));
    } else {
      I.blocks.push_back(std::make_unique<nn::TransformerBlock>(
          name, cfg.hidden, cfg.heads, cfg.ffn, seed));
    }
  }
  if (core::is_grid(I.mode)) {
    I.embed = std::make_unique<tp::Linear2p5D>(env, "embed", cfg.patch_dim,
                                               cfg.hidden, cfg.seed);
    I.head = std::make_unique<tp::Linear2p5D>(env, "head", cfg.hidden,
                                              cfg.classes, cfg.seed + 999);
  } else if (I.mode == core::TpMode::k3d) {
    I.embed = std::make_unique<tp::Linear3D>(env, "embed", cfg.patch_dim,
                                             cfg.hidden, cfg.seed);
    I.head = std::make_unique<tp::Linear3D>(env, "head", cfg.hidden,
                                            cfg.classes, cfg.seed + 999);
  } else {
    I.embed = std::make_unique<nn::Linear>("embed", cfg.patch_dim, cfg.hidden,
                                           cfg.seed);
    I.head = std::make_unique<nn::Linear>("head", cfg.hidden, cfg.classes,
                                          cfg.seed + 999);
  }
}

TransformerClassifier::~TransformerClassifier() = default;

t::Tensor TransformerClassifier::logits(const t::Tensor& x_full) {
  return impl_->gather_logits(impl_->forward(x_full));
}

float TransformerClassifier::train_batch(const t::Tensor& x_full,
                                         std::span<const std::int64_t> labels) {
  auto local = impl_->forward(x_full);
  auto full = impl_->gather_logits(local);
  t::Tensor dl;
  const float loss = t::cross_entropy(full, labels, dl);
  impl_->backward(impl_->shard_dlogits(dl));
  return loss;
}

float TransformerClassifier::eval_accuracy(
    const t::Tensor& x_full, std::span<const std::int64_t> labels) {
  auto pred = t::argmax_rows(logits(x_full));
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (pred[i] == labels[i]) ++hits;
  return static_cast<float>(hits) / static_cast<float>(labels.size());
}

std::vector<nn::Parameter*> TransformerClassifier::parameters() {
  return impl_->parameters();
}

}  // namespace ca::models
