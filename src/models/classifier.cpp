#include "models/classifier.hpp"

#include <cassert>

#include "models/layout_utils.hpp"
#include "tp/linear1d.hpp"

namespace ca::models {

namespace t = ca::tensor;

Classifier::Classifier(Config cfg) : cfg_(cfg) {
  net_.add(std::make_unique<nn::Linear>("embed", cfg.features, cfg.hidden,
                                        cfg.seed));
  net_.add(std::make_unique<nn::Gelu>());
  for (std::int64_t b = 0; b < cfg.blocks; ++b) {
    net_.add(std::make_unique<nn::Mlp>("block" + std::to_string(b), cfg.hidden,
                                       2 * cfg.hidden, cfg.seed + 10 * (b + 1)));
  }
  net_.add(std::make_unique<nn::Linear>("head", cfg.hidden, cfg.classes,
                                        cfg.seed + 999));
}

Classifier::Classifier(const tp::Env& env, Config cfg)
    : cfg_(cfg), mode_(env.ctx->config().tensor_mode), env_(env) {
  if (core::is_grid(mode_)) {
    net_.add(std::make_unique<tp::Linear2p5D>(env, "embed", cfg.features,
                                              cfg.hidden, cfg.seed));
    net_.add(std::make_unique<nn::Gelu>());
    for (std::int64_t b = 0; b < cfg.blocks; ++b) {
      net_.add(std::make_unique<tp::Mlp2p5D>(env, "block" + std::to_string(b),
                                             cfg.hidden, 2 * cfg.hidden,
                                             cfg.seed + 10 * (b + 1)));
    }
    net_.add(std::make_unique<tp::Linear2p5D>(env, "head", cfg.hidden,
                                              cfg.classes, cfg.seed + 999));
  } else if (mode_ == core::TpMode::k3d) {
    net_.add(std::make_unique<tp::Linear3D>(env, "embed", cfg.features,
                                            cfg.hidden, cfg.seed));
    net_.add(std::make_unique<nn::Gelu>());
    net_.add(std::make_unique<tp::Convert3D>(env));
    for (std::int64_t b = 0; b < cfg.blocks; ++b) {
      net_.add(std::make_unique<tp::Mlp3D>(env, "block" + std::to_string(b),
                                           cfg.hidden, 2 * cfg.hidden,
                                           cfg.seed + 10 * (b + 1)));
      net_.add(std::make_unique<tp::Convert3D>(env));
    }
    net_.add(std::make_unique<tp::Linear3D>(env, "head", cfg.hidden,
                                            cfg.classes, cfg.seed + 999));
  } else {
    // replicated embed/head, 1D-parallel blocks
    net_.add(std::make_unique<nn::Linear>("embed", cfg.features, cfg.hidden,
                                          cfg.seed));
    net_.add(std::make_unique<nn::Gelu>());
    for (std::int64_t b = 0; b < cfg.blocks; ++b) {
      if (mode_ == core::TpMode::k1d) {
        net_.add(std::make_unique<tp::Mlp1D>(env, "block" + std::to_string(b),
                                             cfg.hidden, 2 * cfg.hidden,
                                             cfg.seed + 10 * (b + 1)));
      } else {
        net_.add(std::make_unique<nn::Mlp>("block" + std::to_string(b),
                                           cfg.hidden, 2 * cfg.hidden,
                                           cfg.seed + 10 * (b + 1)));
      }
    }
    net_.add(std::make_unique<nn::Linear>("head", cfg.hidden, cfg.classes,
                                          cfg.seed + 999));
  }
}

Classifier::~Classifier() = default;

t::Tensor Classifier::shard_input(const t::Tensor& full) const {
  if (core::is_grid(mode_)) {
    return tp::Linear2p5D::shard_activation(full, *env_);
  }
  if (mode_ == core::TpMode::k3d) {
    auto& ctx = *env_->ctx;
    return tp::Linear3D::shard_input(full, ctx.grid_side(),
                                     ctx.cube_i(env_->grank),
                                     ctx.cube_j(env_->grank),
                                     ctx.cube_k(env_->grank));
  }
  return full.clone();
}

t::Tensor Classifier::logits(const t::Tensor& x_full) {
  auto local = net_.forward(shard_input(x_full));
  return env_ ? detail::gather_logits(*env_, mode_, local) : local;
}

float Classifier::train_batch(const t::Tensor& x_full,
                              std::span<const std::int64_t> labels) {
  auto full_logits = logits(x_full);
  t::Tensor dl;
  const float loss = t::cross_entropy(full_logits, labels, dl);
  net_.backward(env_ ? detail::shard_logits(*env_, mode_, dl) : dl);
  return loss;
}

float Classifier::eval_accuracy(const t::Tensor& x_full,
                                std::span<const std::int64_t> labels) {
  auto pred = t::argmax_rows(logits(x_full));
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (pred[i] == labels[i]) ++hits;
  return static_cast<float>(hits) / static_cast<float>(labels.size());
}

std::vector<nn::Parameter*> Classifier::parameters() {
  return net_.parameters();
}

std::vector<float> train_trajectory(Classifier& model,
                                    const data::SyntheticClassification& ds,
                                    std::int64_t batch, int steps, float lr) {
  std::vector<float> losses;
  losses.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    auto x = ds.batch_features(s * batch, batch);
    auto y = ds.batch_labels(s * batch, batch);
    for (nn::Parameter* p : model.parameters()) p->grad.fill(0.0f);
    losses.push_back(model.train_batch(x, y));
    for (nn::Parameter* p : model.parameters())
      ca::tensor::axpy_(p->value, -lr, p->grad);
  }
  return losses;
}

}  // namespace ca::models
