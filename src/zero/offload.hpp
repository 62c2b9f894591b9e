#pragma once

#include <memory>

#include "zero/chunk.hpp"

namespace ca::zero {

/// Decides where fp16 model-data chunks and fp32 optimizer states live.
class OffloadPolicy {
 public:
  virtual ~OffloadPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Placement of an fp16 parameter chunk given the bytes already committed
  /// to the device and the device budget available for model data.
  [[nodiscard]] virtual Placement place_param_chunk(
      std::int64_t chunk_bytes, std::int64_t device_committed,
      std::int64_t device_budget) const = 0;

  /// Fraction of the fp32 master/moment state updated on the GPU (the rest
  /// is updated by CPU Adam).
  [[nodiscard]] virtual double gpu_update_fraction(
      std::int64_t state_bytes, std::int64_t device_free) const = 0;

  /// Whether fp16 parameter storage is reused for gradients (Figure 6).
  [[nodiscard]] virtual bool reuse_fp16_storage() const = 0;
};

/// The DeepSpeed zero-offload baseline: every model-data chunk lives in CPU
/// memory regardless of GPU headroom ("DeepSpeed's static policy will still
/// offload all model data to the CPU memory"), all parameters are updated by
/// CPU Adam, and fp16 storage is not reused.
class StaticOffloadPolicy : public OffloadPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "deepspeed-static"; }
  [[nodiscard]] Placement place_param_chunk(std::int64_t, std::int64_t,
                                            std::int64_t) const override {
    return Placement::kHost;
  }
  [[nodiscard]] double gpu_update_fraction(std::int64_t,
                                           std::int64_t) const override {
    return 0.0;
  }
  [[nodiscard]] bool reuse_fp16_storage() const override { return false; }
};

/// Colossal-AI's adaptive placement: chunks stay on the GPU while the budget
/// lasts, the hybrid Adam updates on both sides, fp16 storage is reused.
class DynamicOffloadPolicy : public OffloadPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "colossalai-dynamic"; }
  [[nodiscard]] Placement place_param_chunk(
      std::int64_t chunk_bytes, std::int64_t device_committed,
      std::int64_t device_budget) const override {
    return device_committed + chunk_bytes <= device_budget ? Placement::kDevice
                                                           : Placement::kHost;
  }
  [[nodiscard]] double gpu_update_fraction(std::int64_t state_bytes,
                                           std::int64_t device_free) const override {
    if (state_bytes <= 0) return 1.0;
    const double f = static_cast<double>(device_free) /
                     static_cast<double>(state_bytes);
    return f < 0.0 ? 0.0 : (f > 1.0 ? 1.0 : f);
  }
  [[nodiscard]] bool reuse_fp16_storage() const override { return true; }
};

/// GPT/OPT-style decoder workload for the Figure 14 experiments.
struct OffloadWorkload {
  std::int64_t layers = 50;
  std::int64_t hidden = 4096;  ///< 12*L*h^2 ~ 10B params (GPT-2 10B)
  std::int64_t batch_per_gpu = 4;
  std::int64_t seq = 1024;
  std::int64_t bytes_per_elem = 2;

  [[nodiscard]] std::int64_t params() const {
    return 12 * layers * hidden * hidden;
  }
  /// Held activation bytes per device (checkpointed: block boundaries only).
  [[nodiscard]] std::int64_t activation_bytes() const {
    return 2 * layers * batch_per_gpu * seq * hidden * bytes_per_elem;
  }
};

/// Cost-model execution of one ZeRO-3 + offloading training step under a
/// placement policy — regenerates Figure 14. Per rank, per layer: fetch the
/// layer's parameter chunks (PCIe if host-resident), all-gather the shards
/// over the data-parallel group, compute, reduce-scatter gradients, offload
/// them per policy, then run the hybrid CPU/GPU Adam (at HybridAdam's
/// element update rates).
class SimOffloadTrainer {
 public:
  SimOffloadTrainer(const tp::Env& env, OffloadWorkload workload,
                    const OffloadPolicy& policy,
                    std::int64_t chunk_bytes = 64 << 20);

  /// Account one forward+backward+update step (SPMD over the data group).
  void train_step();

  /// Device bytes committed to resident parameter chunks.
  [[nodiscard]] std::int64_t device_param_bytes() const;
  [[nodiscard]] const ChunkManager& chunks() const { return chunks_; }

 private:
  tp::Env env_;
  OffloadWorkload w_;
  const OffloadPolicy& policy_;
  ChunkManager chunks_;
  /// Distinct chunk ids holding each layer's parameter tensors.
  std::vector<std::vector<int>> layer_chunks_;
  double gpu_frac_ = 0.0;
  std::int64_t state_elems_shard_ = 0;
};

}  // namespace ca::zero
