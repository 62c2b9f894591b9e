#pragma once

#include <memory>
#include <optional>

#include "models/shell.hpp"

namespace ca::tp {
class VocabParallelEmbedding;
}  // namespace ca::tp

namespace ca::models {

/// Decoder-only GPT-style language model over token ids: token + learned
/// position embeddings, a stack of Transformer blocks (causal masking is
/// omitted — the training dynamics the experiments need are unchanged and
/// the attention substrate stays shared with ViT/BERT), a final LayerNorm,
/// and an untied LM head.
///
/// Builds the none and 1D layouts. 1D is the full Megatron recipe:
/// vocabulary-parallel token embedding, tensor-parallel blocks, a
/// column-parallel LM head whose logits stay sharded over the vocabulary,
/// and the vocabulary-parallel cross-entropy — the full (rows, vocab) logits
/// tensor never materializes.
class GptModel {
 public:
  struct Config {
    std::int64_t vocab = 256;
    std::int64_t seq = 32;
    std::int64_t hidden = 64;
    std::int64_t heads = 4;
    std::int64_t ffn = 128;
    std::int64_t layers = 2;
    std::uint64_t seed = 1;
  };

  explicit GptModel(Config cfg);  // serial
  /// This rank's model, on the layout of env's context.
  GptModel(const tp::Env& env, Config cfg);
  ~GptModel();

  /// Next-token language modeling on a (batch * seq) flat token stream:
  /// position t predicts token t+1. Forward + backward; returns the mean
  /// cross-entropy. Gradients accumulate.
  float train_batch(std::span<const std::int64_t> tokens, std::int64_t batch);

  /// Forward only; mean cross-entropy of next-token prediction.
  float eval_loss(std::span<const std::int64_t> tokens, std::int64_t batch);

  [[nodiscard]] std::vector<nn::Parameter*> parameters();
  [[nodiscard]] std::int64_t num_params();

 private:
  GptModel(const tp::Env* env, Config cfg);
  /// (batch * seq, V) logits, or this rank's (batch * seq, V/p) vocabulary
  /// shard under 1D.
  tensor::Tensor forward_logits(std::span<const std::int64_t> ids,
                                std::int64_t batch);
  /// Mean next-token cross-entropy of the current logits; writes
  /// dL/dlogits into `dl` when non-null.
  float next_token_loss(const tensor::Tensor& logits,
                        std::span<const std::int64_t> tokens,
                        std::int64_t batch, tensor::Tensor* dl);

  Config cfg_;
  std::optional<tp::Env> env_;  ///< set under 1D (vocabulary parallel)
  std::unique_ptr<nn::Embedding> tok_emb_;               // none
  std::unique_ptr<tp::VocabParallelEmbedding> vp_emb_;  // 1D
  std::unique_ptr<nn::Embedding> pos_emb_;
  nn::Sequential trunk_;  ///< the blocks, then the final LayerNorm
  std::unique_ptr<nn::Module> head_;
};

}  // namespace ca::models
