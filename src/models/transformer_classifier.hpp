#pragma once

#include "models/shell.hpp"

namespace ca::models {

/// ViT-style classifier with REAL Transformer blocks under every tensor-
/// parallel layout (none / 1D / 2D / 2.5D / 3D): patch embedding, a block
/// stack, mean pooling over the sequence, and a classification head. The
/// strongest form of the Figure 7 experiment: identical seeds + identical
/// data => every layout reproduces the serial training trajectory. Input is
/// (batch, patches, patch_dim).
class TransformerClassifier : public ClassifierShell {
 public:
  struct Config {
    std::int64_t patches = 4;    ///< sequence length
    std::int64_t patch_dim = 8;  ///< features per patch
    std::int64_t hidden = 16;
    std::int64_t heads = 2;
    std::int64_t ffn = 32;
    std::int64_t blocks = 1;
    std::int64_t classes = 8;
    std::uint64_t seed = 1;
  };

  explicit TransformerClassifier(Config cfg);  // serial
  /// This rank's model, on the layout of env's context.
  TransformerClassifier(const tp::Env& env, Config cfg);

 private:
  TransformerClassifier(const tp::Env* env, Config cfg);
};

}  // namespace ca::models
