#pragma once

#include "models/shell.hpp"

namespace ca::models {

/// Vision-Transformer-style classifier over pre-patchified inputs
/// (batch, patches, patch_dim): linear patch embedding, a stack of
/// Transformer blocks, a final LayerNorm, mean pooling, and a classification
/// head. Builds the none, 1D (Megatron) and sequence (Ring Self-Attention)
/// layouts — the three functional layouts the examples and convergence
/// tests exercise end to end.
class VitClassifier : public ClassifierShell {
 public:
  struct Config {
    std::int64_t patches = 16;  ///< sequence length (must divide by SP size)
    std::int64_t patch_dim = 48;
    std::int64_t hidden = 64;
    std::int64_t heads = 4;
    std::int64_t ffn = 128;
    std::int64_t layers = 2;
    std::int64_t classes = 10;
    std::uint64_t seed = 1;
  };

  explicit VitClassifier(Config cfg);  // serial
  /// This rank's model, on the layout of env's context.
  VitClassifier(const tp::Env& env, Config cfg);

 private:
  VitClassifier(const tp::Env* env, Config cfg);
};

}  // namespace ca::models
