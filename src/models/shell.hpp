#pragma once

// What every model in this directory shares: the data layout read from the
// parallel context, one factory per layer kind that builds that layout's
// layer, and the classifier shell that owns everything around the layers
// (input slicing, logits gathering, loss, backward, accuracy). The model
// classes only say which layers they stack, as the config picks the layout
// and the model code never names it (the paper's Listing 1).

#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "tp/env.hpp"

namespace ca::models {

/// How a model's activations and weights are partitioned on one rank.
enum class Layout { kNone, k1d, k2d, k2p5d, k3d, kSequence };

/// The layout `env`'s context runs: sequence when sequence_parallel_size > 1,
/// otherwise its tensor mode. A null env is the serial reference (kNone).
[[nodiscard]] Layout layout_of(const tp::Env* env);
/// layout_of(env), checked against the layouts `model` builds: throws
/// std::invalid_argument naming the model and the layout otherwise.
[[nodiscard]] Layout layout_for(const char* model, const tp::Env* env,
                                std::initializer_list<Layout> builds);

/// The linear layer of env's layout: replicated nn::Linear under none, 1D
/// and sequence, Linear2p5D on the 2D/2.5D grid, Linear3D (X layout in,
/// Y layout out) on the cube. A null env means serial.
std::unique_ptr<nn::Module> make_linear(const tp::Env* env, std::string name,
                                        std::int64_t in, std::int64_t out,
                                        std::uint64_t seed);
/// The MLP of env's layout: nn::Mlp, Mlp1D, Mlp2p5D or Mlp3D (X in, Y out).
/// Under sequence it is the replicated nn::Mlp.
std::unique_ptr<nn::Module> make_mlp(const tp::Env* env, std::string name,
                                     std::int64_t hidden, std::int64_t ffn,
                                     std::uint64_t seed);
/// The pre-LN Transformer block of env's layout (the residual stream keeps
/// the layout's token slice on both sides).
std::unique_ptr<nn::Module> make_block(const tp::Env* env, std::string name,
                                       std::int64_t hidden, std::int64_t heads,
                                       std::int64_t ffn, std::uint64_t seed);

/// Mean over the sequence: (b, s, h) tokens to (b, h), dividing by
/// `full_seq`, so a rank holding a sub-sequence yields its partial of the
/// mean. Backward hands every local token dpooled / full_seq.
class MeanPool : public nn::Module {
 public:
  explicit MeanPool(std::int64_t full_seq) : full_seq_(full_seq) {}
  tensor::Tensor forward(const tensor::Tensor& tokens) override;
  tensor::Tensor backward(const tensor::Tensor& dpooled) override;

 private:
  std::int64_t full_seq_;
  std::int64_t local_seq_ = 0;
};

/// Sums the sub-sequence partials of a pooled activation over the sequence
/// group (on the context's wire dtype); the gradient of the replicated sum
/// passes through unchanged.
class SequenceSum : public nn::Module {
 public:
  explicit SequenceSum(const tp::Env& env) : env_(env) {}
  tensor::Tensor forward(const tensor::Tensor& partial) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override { return dy; }

 private:
  tp::Env env_;
};

/// A classifier on any layout: the model class fills `body_` with its layers
/// (full-batch input sliced to the layout in, the layout's 2-d logits block
/// out), and the shell does the rest. The per-rank API takes the FULL batch
/// and replicates the full logits on every rank, so the loss (mean
/// cross-entropy) is computed identically under every layout.
class ClassifierShell {
 public:
  /// Full-batch logits, replicated on every rank.
  tensor::Tensor logits(const tensor::Tensor& x_full);
  /// Forward + backward on the full batch; gradients accumulate in the
  /// layers. Returns the mean cross-entropy loss.
  float train_batch(const tensor::Tensor& x_full,
                    std::span<const std::int64_t> labels);
  /// Forward only; classification accuracy on the batch.
  float eval_accuracy(const tensor::Tensor& x_full,
                      std::span<const std::int64_t> labels);

  [[nodiscard]] std::vector<nn::Parameter*> parameters() {
    return body_.parameters();
  }

 protected:
  /// The shell of `model` on env's layout (see layout_for); a null env is
  /// serial.
  ClassifierShell(const char* model, const tp::Env* env,
                  std::initializer_list<Layout> builds);

  std::optional<tp::Env> env_;
  Layout layout_;
  nn::Sequential body_;
  /// Sequence layout only: parameters whose gradients are per-sub-sequence
  /// partials, summed over the sequence group after the whole backward.
  std::vector<nn::Parameter*> sequence_partials_;
};

}  // namespace ca::models
