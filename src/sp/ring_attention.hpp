#pragma once

#include <string>

#include "nn/layers.hpp"
#include "sp/ring.hpp"
#include "tp/env.hpp"

namespace ca::sp {

/// Ring Self-Attention (Li et al., "Sequence Parallelism: Long Sequence
/// Training from System Perspective") — the attention drop-in that powers
/// the paper's Section 5.3. The model is replicated (like data parallelism)
/// but the *sequence* is split: each rank holds a (b, s/p, h) sub-sequence.
/// Partial key and value embeddings circulate around the ring so every rank
/// computes its query block against the full sequence; activation memory per
/// rank scales as 1/p, which is exactly what lifts the max batch size and
/// sequence length in Figure 12.
///
/// Parameter gradients are all-reduced over the sequence group in backward
/// (replicated weights, data-parallel-style), so training matches the serial
/// model exactly.
class RingAttention : public nn::Module {
 public:
  RingAttention(const tp::Env& env, std::string name, std::int64_t hidden,
                std::int64_t heads, std::uint64_t seed);
  ~RingAttention() override;

  /// x: (b, s/p, h) local sub-sequence; returns the same shape.
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;

 private:
  /// Collect all ranks' chunk of a (B, s/p, d) tensor into (B, s, d) via
  /// p-1 ring passes, charging the ring-transfer communication.
  tensor::Tensor ring_collect(const tensor::Tensor& local);

  tp::Env env_;
  std::int64_t hidden_, heads_;
  nn::Linear qkv_;   // replicated
  nn::Linear proj_;  // replicated
  nn::AttentionCore core_;  // local q against the ring-collected K/V
  tp::ActivationTracker acts_;
  std::int64_t param_bytes_ = 0;
};

/// Pre-LN Transformer block for sequence parallelism: RingAttention plus
/// replicated LayerNorm/MLP applied to the local sub-sequence. All parameter
/// gradients are synchronized over the sequence group in backward.
class TransformerBlockSP : public nn::PreLNBlock {
 public:
  TransformerBlockSP(const tp::Env& env, std::string name, std::int64_t hidden,
                     std::int64_t heads, std::int64_t ffn_hidden,
                     std::uint64_t seed);

  /// The shared pre-LN backward, then a delta all-reduce of the replicated
  /// LayerNorm/MLP gradients (RingAttention syncs its own).
  tensor::Tensor backward(const tensor::Tensor& dy) override;

 private:
  tp::Env env_;
};

}  // namespace ca::sp
