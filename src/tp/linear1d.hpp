#pragma once

#include <string>

#include "nn/layers.hpp"
#include "tp/comm_helpers.hpp"
#include "tp/env.hpp"

namespace ca::tp {

/// Megatron-LM-style column-parallel linear: the weight (in, out) is split
/// along the OUTPUT dimension across the tensor group. Input is replicated;
/// output is the local column block (optionally gathered). The backward pass
/// all-reduces the input gradient — the 1D all-reduce Table 1 charges.
///
/// The full weight is materialized from `seed` and sliced, so N shards
/// together are bit-identical to the serial nn::Linear with the same seed.
class Linear1DCol : public nn::Module {
 public:
  Linear1DCol(const Env& env, std::string name, std::int64_t in,
              std::int64_t out, std::uint64_t seed, bool gather_output,
              bool with_bias = true);
  ~Linear1DCol() override;

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;

  [[nodiscard]] nn::Parameter& weight() { return weight_; }

 private:
  Env env_;
  std::int64_t in_, out_;
  bool gather_output_, with_bias_;
  nn::Parameter weight_;  // (in, out/p)
  nn::Parameter bias_;    // (out/p)
  tensor::Tensor saved_x_;
  ActivationTracker acts_;
  std::int64_t param_bytes_ = 0;
};

/// Row-parallel linear: weight split along the INPUT dimension; input arrives
/// pre-split along its last dim; the partial product is all-reduced (the
/// forward all-reduce of Megatron's MLP, Figure 4).
class Linear1DRow : public nn::Module {
 public:
  Linear1DRow(const Env& env, std::string name, std::int64_t in,
              std::int64_t out, std::uint64_t seed, bool with_bias = true);
  ~Linear1DRow() override;

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;

  [[nodiscard]] nn::Parameter& weight() { return weight_; }

 private:
  Env env_;
  std::int64_t in_, out_;
  bool with_bias_;
  nn::Parameter weight_;  // (in/p, out)
  nn::Parameter bias_;    // (out), applied identically on all ranks
  tensor::Tensor saved_x_;
  ActivationTracker acts_;
  std::int64_t param_bytes_ = 0;
};

/// The Megatron MLP of Figure 4: column-parallel h->ffn (no gather), GELU on
/// the local block, row-parallel ffn->h with output all-reduce. Input and
/// output are replicated across the tensor group; exactly one all-reduce in
/// forward and one in backward.
class Mlp1D : public nn::MlpBody {
 public:
  Mlp1D(const Env& env, std::string name, std::int64_t hidden,
        std::int64_t ffn_hidden, std::uint64_t seed);
};

/// Megatron self-attention: QKV projection column-split by attention heads
/// (each rank owns heads/p full heads), local scaled-dot-product attention,
/// row-parallel output projection with all-reduce. Requires heads % p == 0 —
/// the very restriction the paper's sequence-parallel study calls out.
class Attention1D : public nn::Module {
 public:
  Attention1D(const Env& env, std::string name, std::int64_t hidden,
              std::int64_t heads, std::uint64_t seed);
  ~Attention1D() override;

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;

 private:
  Env env_;
  std::int64_t hidden_, local_heads_, head_dim_, local_hidden_;
  nn::Parameter qkv_weight_;   // (h, 3*h/p) — [q | k | v] column slices
  nn::Parameter qkv_bias_;     // (3*h/p)
  nn::Parameter proj_weight_;  // (h/p, h)
  nn::Parameter proj_bias_;    // (h)
  nn::AttentionCore core_;
  tensor::Tensor saved_x_, saved_merged_;  // merged: (b, s, h/p) context
  ActivationTracker acts_;
  std::int64_t param_bytes_ = 0;
};

/// Pre-LN Transformer block with 1D-parallel attention and MLP; LayerNorms
/// are replicated (their inputs are replicated, so their gradients agree on
/// every rank without synchronization).
class TransformerBlock1D : public nn::PreLNBlock {
 public:
  TransformerBlock1D(const Env& env, std::string name, std::int64_t hidden,
                     std::int64_t heads, std::int64_t ffn_hidden,
                     std::uint64_t seed);
};

}  // namespace ca::tp
