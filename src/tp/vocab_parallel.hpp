#pragma once

#include <string>

#include "nn/layers.hpp"
#include "tp/comm_helpers.hpp"
#include "tp/env.hpp"

namespace ca::tp {

/// Megatron-style vocabulary-parallel embedding: the embedding table's rows
/// (token ids) are sharded over the tensor group. Each rank looks up only
/// the ids in its range (others contribute zeros) and one all-reduce
/// reconstructs the full embeddings — the table never exists in one piece.
class VocabParallelEmbedding {
 public:
  VocabParallelEmbedding(const Env& env, std::string name, std::int64_t vocab,
                         std::int64_t hidden, std::uint64_t seed);

  /// ids: flattened (batch*seq); returns (ids.size(), hidden), full values
  /// on every rank.
  tensor::Tensor forward(std::span<const std::int64_t> ids);
  /// Scatter grads into the local table shard rows.
  void backward(const tensor::Tensor& dy);

  [[nodiscard]] nn::Parameter& table() { return table_; }
  [[nodiscard]] std::int64_t vocab_begin() const { return begin_; }
  [[nodiscard]] std::int64_t vocab_end() const { return end_; }

 private:
  Env env_;
  std::int64_t vocab_, hidden_, begin_, end_;
  nn::Parameter table_;  // (vocab/p, hidden)
  sim::ScopedAlloc footprint_;
  std::vector<std::int64_t> saved_ids_;
};

/// Vocabulary-parallel LM head + cross-entropy: logits stay sharded over the
/// vocabulary dimension and the softmax statistics are assembled with two
/// small all-reduces (max, then sum-exp) — the full (rows, vocab) logits
/// tensor never materializes on any rank. This is how Megatron-LM keeps the
/// LM loss memory flat as the vocabulary is sharded.
class VocabParallelCrossEntropy {
 public:
  explicit VocabParallelCrossEntropy(const Env& env) : env_(env) {}

  /// `local_logits`: (rows, vocab/p) — this rank's vocab slice.
  /// `targets`: global token ids per row. Returns the mean loss and writes
  /// dL/d(local_logits) into `dlocal`.
  float forward_backward(const tensor::Tensor& local_logits,
                         std::span<const std::int64_t> targets,
                         tensor::Tensor& dlocal);

 private:
  Env env_;
};

}  // namespace ca::tp
