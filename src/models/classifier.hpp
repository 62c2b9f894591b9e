#pragma once

#include "data/synthetic.hpp"
#include "models/shell.hpp"

namespace ca::models {

/// The convergence-experiment model (the Figure 7 analogue): an MLP
/// classifier — embedding linear, a stack of MLP blocks, and a head —
/// buildable serially or under ANY tensor-parallel layout (none, 1D, 2D,
/// 2.5D, 3D) from the same seeds, so all layouts start from bit-identical
/// weights and see identical batches. Input is (batch, features).
///
/// The shell gathers the logits back, so the loss (mean cross-entropy) is
/// computed identically everywhere. This is exactly the property the paper
/// verifies when it shows the test-accuracy curves of all tensor-parallel
/// modes lying on the data-parallel curve.
class Classifier : public ClassifierShell {
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
  /// This rank's model, on the layout of env's context.
  Classifier(const tp::Env& env, Config cfg);

 private:
  Classifier(const tp::Env* env, Config cfg);
};

/// Train `model` for `steps` on the dataset with plain SGD and report the
/// loss trajectory — shared by the convergence tests and bench.
std::vector<float> train_trajectory(ClassifierShell& model,
                                    const data::SyntheticClassification& ds,
                                    std::int64_t batch, int steps, float lr);

}  // namespace ca::models
