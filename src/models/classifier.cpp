#include "models/classifier.hpp"

#include "tp/linear3d.hpp"

namespace ca::models {

Classifier::Classifier(Config cfg) : Classifier(nullptr, cfg) {}

Classifier::Classifier(const tp::Env& env, Config cfg)
    : Classifier(&env, cfg) {}

Classifier::Classifier(const tp::Env* env, Config cfg)
    : ClassifierShell("Classifier", env,
                      {Layout::kNone, Layout::k1d, Layout::k2d, Layout::k2p5d,
                       Layout::k3d}) {
  // 3D linears and MLPs emit Y layout; the next layer consumes X layout
  auto to_x = [&] {
    if (layout_ == Layout::k3d) {
      body_.add(std::make_unique<tp::Convert3D>(*env));
    }
  };
  body_.add(make_linear(env, "embed", cfg.features, cfg.hidden, cfg.seed));
  body_.add(std::make_unique<nn::Gelu>());
  to_x();
  for (std::int64_t b = 0; b < cfg.blocks; ++b) {
    body_.add(make_mlp(env, "block" + std::to_string(b), cfg.hidden,
                       2 * cfg.hidden, cfg.seed + 10 * (b + 1)));
    to_x();
  }
  body_.add(
      make_linear(env, "head", cfg.hidden, cfg.classes, cfg.seed + 999));
}

std::vector<float> train_trajectory(ClassifierShell& model,
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
