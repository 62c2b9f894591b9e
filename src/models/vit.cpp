#include "models/vit.hpp"

namespace ca::models {

VitClassifier::VitClassifier(Config cfg) : VitClassifier(nullptr, cfg) {}

VitClassifier::VitClassifier(const tp::Env& env, Config cfg)
    : VitClassifier(&env, cfg) {}

VitClassifier::VitClassifier(const tp::Env* env, Config cfg)
    : ClassifierShell("VitClassifier", env,
                      {Layout::kNone, Layout::k1d, Layout::kSequence}) {
  auto& embed = body_.add(
      make_linear(env, "embed", cfg.patch_dim, cfg.hidden, cfg.seed));
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    body_.add(make_block(env, "block" + std::to_string(l), cfg.hidden,
                         cfg.heads, cfg.ffn, cfg.seed + 1000 * (l + 1)));
  }
  auto& final_ln =
      body_.add(std::make_unique<nn::LayerNorm>("final_ln", cfg.hidden));
  body_.add(std::make_unique<MeanPool>(cfg.patches));
  if (layout_ == Layout::kSequence) {
    // SP ranks pool their sub-sequence: sum the partial means, so the head
    // sees the replicated full mean and its gradients are already full,
    // while embed and final-LN gradients stay per-sub-sequence partials
    body_.add(std::make_unique<SequenceSum>(*env));
    embed.collect_parameters(sequence_partials_);
    final_ln.collect_parameters(sequence_partials_);
  }
  body_.add(
      make_linear(env, "head", cfg.hidden, cfg.classes, cfg.seed + 999));
}

}  // namespace ca::models
