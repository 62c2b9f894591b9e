#include "models/transformer_classifier.hpp"

#include "tp/linear3d.hpp"

namespace ca::models {

TransformerClassifier::TransformerClassifier(Config cfg)
    : TransformerClassifier(nullptr, cfg) {}

TransformerClassifier::TransformerClassifier(const tp::Env& env, Config cfg)
    : TransformerClassifier(&env, cfg) {}

TransformerClassifier::TransformerClassifier(const tp::Env* env, Config cfg)
    : ClassifierShell("TransformerClassifier", env,
                      {Layout::kNone, Layout::k1d, Layout::k2d, Layout::k2p5d,
                       Layout::k3d}) {
  auto embed =
      make_linear(env, "embed", cfg.patch_dim, cfg.hidden, cfg.seed);
  // the cube's blocks take tokens in X layout on both sides
  if (layout_ == Layout::k3d) {
    embed = std::make_unique<tp::Tokens3D>(*env, std::move(embed));
  }
  body_.add(std::move(embed));
  for (std::int64_t b = 0; b < cfg.blocks; ++b) {
    body_.add(make_block(env, "block" + std::to_string(b), cfg.hidden,
                         cfg.heads, cfg.ffn, cfg.seed + 1000 * (b + 1)));
  }
  body_.add(std::make_unique<MeanPool>(cfg.patches));
  body_.add(
      make_linear(env, "head", cfg.hidden, cfg.classes, cfg.seed + 999));
}

}  // namespace ca::models
