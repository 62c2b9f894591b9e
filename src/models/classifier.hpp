#pragma once

#include <memory>
#include <optional>

#include "core/config.hpp"
#include "data/synthetic.hpp"
#include "nn/layers.hpp"
#include "tp/env.hpp"

namespace ca::models {

/// The convergence-experiment model (the Figure 7 analogue): an MLP
/// classifier — embedding linear, a stack of MLP blocks, and a head —
/// buildable serially or under ANY tensor-parallel mode from the same seeds,
/// so all modes start from bit-identical weights and see identical batches.
///
/// The per-rank API always takes the FULL global batch; each parallel mode
/// shards it internally per its layout, and the logits are gathered back so
/// the loss (mean cross-entropy) is computed identically everywhere. This is
/// exactly the property the paper verifies when it shows the test-accuracy
/// curves of all tensor-parallel modes lying on the data-parallel curve.
class Classifier {
 public:
  struct Config {
    std::int64_t features = 0;
    std::int64_t hidden = 0;
    std::int64_t classes = 0;
    std::int64_t blocks = 1;  ///< number of MLP blocks between embed and head
    std::uint64_t seed = 1;
  };

  /// Serial reference model.
  explicit Classifier(Config cfg);
  /// Tensor-parallel model for this rank (mode from the context's config).
  Classifier(const tp::Env& env, Config cfg);
  ~Classifier();

  /// Forward + backward on the full batch; gradients accumulate in the
  /// layers. Returns the mean cross-entropy loss.
  float train_batch(const tensor::Tensor& x_full,
                    std::span<const std::int64_t> labels);

  /// Forward only; returns classification accuracy on the batch.
  float eval_accuracy(const tensor::Tensor& x_full,
                      std::span<const std::int64_t> labels);

  /// Full-batch logits (gathered/replicated on every rank).
  tensor::Tensor logits(const tensor::Tensor& x_full);

  [[nodiscard]] std::vector<nn::Parameter*> parameters();

 private:
  tensor::Tensor shard_input(const tensor::Tensor& full) const;

  Config cfg_;
  core::TpMode mode_ = core::TpMode::kNone;
  std::optional<tp::Env> env_;
  // one Sequential holding embed + blocks + head, built per mode
  nn::Sequential net_;
  // 3D only: layout conversions between chained layers are inserted by a
  // dedicated adapter module defined in the .cpp.
};

/// Train `model` for `steps` on the dataset with plain SGD and report the
/// loss trajectory — shared by the convergence tests and bench.
std::vector<float> train_trajectory(Classifier& model,
                                    const data::SyntheticClassification& ds,
                                    std::int64_t batch, int steps, float lr);

}  // namespace ca::models
