#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <vector>

#include "nn/module.hpp"

namespace ca::optim {

/// Optimizer over a fixed parameter set. Parameters are registered once (the
/// pointers must outlive the optimizer); step() consumes .grad.
class Optimizer {
 public:
  explicit Optimizer(std::vector<nn::Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  virtual void step() = 0;

  /// Serialize this optimizer's state (moments, step counters) in full,
  /// world-size-agnostic form, so a checkpoint written at one world size
  /// restores at another (the shrunk-cluster recovery path). Stateless
  /// optimizers write nothing. Restores must target an optimizer built over
  /// the same parameter list (same order and shapes).
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

  /// Hook form the checkpoint layer uses to re-layout per-parameter state
  /// tensors (Adam moments, SGD velocity) across tensor grids: the writer /
  /// reader is invoked once per state tensor with the index of the owning
  /// parameter in params(), and may gather the shard into full form on the
  /// way out or slice the full form on the way in. The default hooks stream
  /// the tensor verbatim ([i64 numel][raw f32s]), so the on-disk format is
  /// unchanged when no re-layout is needed. Scalar state (step counters)
  /// bypasses the hooks.
  using TensorWriter =
      std::function<void(std::ostream&, std::size_t, const tensor::Tensor&)>;
  using TensorReader =
      std::function<void(std::istream&, std::size_t, tensor::Tensor&)>;
  virtual void save_state(std::ostream& os, const TensorWriter& write) const;
  virtual void load_state(std::istream& is, const TensorReader& read);

  /// The verbatim hooks save_state(os) / load_state(is) use.
  static TensorWriter raw_writer();
  static TensorReader raw_reader();

  void zero_grad() {
    for (nn::Parameter* p : params_) p->grad.fill(0.0f);
  }

  [[nodiscard]] const std::vector<nn::Parameter*>& params() const {
    return params_;
  }

 protected:
  std::vector<nn::Parameter*> params_;
};

/// Plain SGD with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<nn::Parameter*> params, float lr, float momentum = 0.0f);
  void step() override;
  void save_state(std::ostream& os, const TensorWriter& write) const override;
  void load_state(std::istream& is, const TensorReader& read) override;
  using Optimizer::load_state;
  using Optimizer::save_state;

 private:
  float lr_, momentum_;
  std::vector<tensor::Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction; `weight_decay` applies the
/// decoupled AdamW rule when `decoupled` is true.
class Adam : public Optimizer {
 public:
  struct Hyper {
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.0f;
    bool decoupled = false;  ///< true => AdamW
  };

  Adam(std::vector<nn::Parameter*> params, Hyper hyper);
  void step() override;
  void save_state(std::ostream& os, const TensorWriter& write) const override;
  void load_state(std::istream& is, const TensorReader& read) override;
  using Optimizer::load_state;
  using Optimizer::save_state;

  /// Bytes of optimizer state (two fp32 moments per element) — the "three
  /// times larger than parameters" model-data pressure the paper attributes
  /// to stateful optimizers.
  [[nodiscard]] std::int64_t state_bytes() const;

  [[nodiscard]] std::int64_t steps_taken() const { return t_; }

  /// The elementwise Adam update at step `t` (1-based): moves `w` by the
  /// bias-corrected step of gradient `g` and updates the moments `m` and `v`
  /// in place; all four spans have one length. Adam::step (and so
  /// HybridAdam) and ZeRO's shard update all run this one kernel.
  static void update(const Hyper& h, std::int64_t t, std::span<float> w,
                     std::span<const float> g, std::span<float> m,
                     std::span<float> v);

 protected:
  Hyper hyper_;
  std::int64_t t_ = 0;
  std::vector<tensor::Tensor> m_, v_;
};

/// AdamW convenience wrapper (the paper's ViT convergence runs use AdamW
/// with lr 0.003 / weight decay 0.3).
class AdamW : public Adam {
 public:
  AdamW(std::vector<nn::Parameter*> params, float lr, float weight_decay)
      : Adam(std::move(params),
             Hyper{lr, 0.9f, 0.999f, 1e-8f, weight_decay, true}) {}
};

}  // namespace ca::optim
