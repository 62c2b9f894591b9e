#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "nn/module.hpp"

namespace ca::nn {

/// y = x W + b with W: (in, out). Initialization follows the paper's ViT
/// setup ("Jax initialization" = Lecun-normal fan-in scaling) and is fully
/// determined by `seed`, so parallel shards can be carved out of a
/// bit-identical full weight on every device.
class Linear : public Module {
 public:
  Linear(std::string name, std::int64_t in, std::int64_t out, std::uint64_t seed,
         bool with_bias = true);

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  /// dgrad/wgrad split (zero-bubble pipelines): backward_input returns
  /// dy W^T immediately and stashes (x, dy); backward_weight pops the oldest
  /// stash and accumulates dW/db with the exact ops backward() uses, so the
  /// split pair is bit-identical to the combined call. Stashes are shallow
  /// tensor handles (shared storage), so deferral is cheap.
  [[nodiscard]] bool has_split_backward() const override { return true; }
  tensor::Tensor backward_input(const tensor::Tensor& dy) override;
  void backward_weight() override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  [[nodiscard]] Parameter& weight() { return weight_; }
  [[nodiscard]] Parameter* bias() { return with_bias_ ? &bias_ : nullptr; }
  [[nodiscard]] std::int64_t in_features() const { return in_; }
  [[nodiscard]] std::int64_t out_features() const { return out_; }

 private:
  struct WgradStash {
    tensor::Tensor x, dy;
  };

  std::int64_t in_, out_;
  bool with_bias_;
  Parameter weight_;
  Parameter bias_;
  tensor::Tensor saved_x_;
  std::deque<WgradStash> wgrad_queue_;
};

/// Tanh-approximation GELU.
class Gelu : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;

 private:
  tensor::Tensor saved_x_;
};

class Relu : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;

 private:
  tensor::Tensor saved_x_;
};

/// LayerNorm over the last dimension with learnable gamma/beta.
class LayerNorm : public Module {
 public:
  LayerNorm(std::string name, std::int64_t hidden, float eps = 1e-5f);

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  std::int64_t hidden_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  tensor::Tensor saved_x_, saved_mean_, saved_rstd_;
};

/// Token embedding lookup. Not a Module (its input is integer ids); the
/// model classes call it directly. Gradients accumulate into the table rows.
class Embedding {
 public:
  Embedding(std::string name, std::int64_t vocab, std::int64_t hidden,
            std::uint64_t seed);

  /// ids: flattened (batch * seq); returns (ids.size(), hidden).
  tensor::Tensor forward(std::span<const std::int64_t> ids);
  /// dy: (ids.size(), hidden) from the last forward.
  void backward(const tensor::Tensor& dy);

  [[nodiscard]] Parameter& table() { return table_; }

 private:
  std::int64_t vocab_, hidden_;
  Parameter table_;
  std::vector<std::int64_t> saved_ids_;
};

/// Head-split fused-projection pieces: q, k and v (or their gradients),
/// each (batch*heads, seq, head_dim).
struct Qkv {
  tensor::Tensor q, k, v;
};

/// (b, s, h) -> (b*heads, s, h/heads): split the hidden dim into heads and
/// move the head axis next to batch.
tensor::Tensor split_heads(const tensor::Tensor& x, std::int64_t heads);
/// Inverse of split_heads.
tensor::Tensor merge_heads(const tensor::Tensor& x, std::int64_t heads);
/// Split a fused (b, s, 3w) "[q|k|v]" projection into head-split q, k, v.
Qkv split_qkv(const tensor::Tensor& qkv, std::int64_t heads);
/// Inverse of split_qkv: merge dq, dk, dv back into one (b, s, 3w) "[q|k|v]".
tensor::Tensor merge_qkv(const Qkv& d, std::int64_t heads);

/// The scaled-dot-product core every attention layout shares:
/// ctx = softmax(q k^T / sqrt(head_dim)) v over head-split tensors, and its
/// mirrored backward. q is (B, sq, d); k and v are (B, skv, d), so sequence
/// parallelism passes its local q against the ring-collected full K/V.
/// Charges no simulated compute: callers price their own layout.
class AttentionCore {
 public:
  /// Saves q, k, v and the probabilities; returns ctx (B, sq, d).
  tensor::Tensor forward(Qkv qkv);
  /// dctx (B, sq, d) -> dq (B, sq, d), dk and dv (B, skv, d).
  Qkv backward(const tensor::Tensor& dctx);
  /// FLOPs of the last forward's two batched products, 4·B·sq·skv·d; its
  /// backward runs twice that. Every factor is an integer, so the product
  /// is exact in double below 2^53.
  [[nodiscard]] double forward_flops() const;
  /// The post-softmax probabilities (B, sq, skv) of the last forward.
  [[nodiscard]] const tensor::Tensor& probs() const { return probs_; }

 private:
  Qkv saved_;
  tensor::Tensor probs_;
};

/// Multi-head self-attention for input (batch, seq, hidden). Fused QKV
/// projection followed by per-head scaled dot-product attention and an
/// output projection — one Transformer sublayer of Figure 2.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(std::string name, std::int64_t hidden, std::int64_t heads,
                     std::uint64_t seed);

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  std::int64_t heads_;
  Linear qkv_;
  Linear proj_;
  AttentionCore core_;
};

/// The feed-forward skeleton every layout shares: fc1 -> GELU -> fc2, with
/// an optional layout conversion between GELU and fc2, plus its backward.
/// Layout MLPs are thin constructors over it; parameters are collected in
/// the order fc1, fc2.
class MlpBody : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

 protected:
  struct Parts {
    std::unique_ptr<Module> fc1, fc2;
    std::unique_ptr<Module> convert = nullptr;  ///< parameter-free, optional
  };
  /// Pass a braced Parts so the layers construct left to right.
  explicit MlpBody(Parts parts) : parts_(std::move(parts)) {}

 private:
  Parts parts_;
  Gelu act_;
};

/// Feed-forward block: Linear(h -> ratio*h) -> GELU -> Linear(ratio*h -> h).
class Mlp : public MlpBody {
 public:
  Mlp(std::string name, std::int64_t hidden, std::int64_t ffn_hidden,
      std::uint64_t seed);
};

/// The pre-LN residual skeleton every layout shares:
///   h = x + attn(ln1(x));  y = h + mlp(ln2(h))
/// plus its backward, over four sublayers that carry the layout. Layout
/// blocks are thin constructors over it; parameters are collected in the
/// order ln1, attn, ln2, mlp.
class PreLNBlock : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

 protected:
  struct Parts {
    std::unique_ptr<Module> ln1, attn, ln2, mlp;
  };
  /// Pass a braced Parts so the sublayers construct left to right.
  explicit PreLNBlock(Parts parts) : parts_(std::move(parts)) {}

  [[nodiscard]] Parts& parts() { return parts_; }

 private:
  Parts parts_;
};

/// Serial pre-LN Transformer block: x + Attn(LN(x)), then x + Mlp(LN(x)).
class TransformerBlock : public PreLNBlock {
 public:
  TransformerBlock(std::string name, std::int64_t hidden, std::int64_t heads,
                   std::int64_t ffn_hidden, std::uint64_t seed);
};

}  // namespace ca::nn
