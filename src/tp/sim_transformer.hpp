#pragma once

#include <cstdint>

#include "collective/cost_replay.hpp"
#include "core/config.hpp"
#include "tp/env.hpp"
#include "tp/memory_model.hpp"

namespace ca::tp {

/// Cost-model execution of a tensor-parallel Transformer training step — the
/// paper-scale twin of the functional layers. Instead of touching data it
/// records the FLOP time of its shard and account-style collectives on the
/// same process groups the functional layers use into a
/// collective::CostReplay scoped to its tensor group, and settles them once
/// per layer: one rendezvous per layer instead of one per modeled
/// collective, with clocks, bytes, trace spans and metrics bit-identical to
/// charging each call live through `account_*`. Throughput experiments
/// (Fig 11, Table 3) so run at ViT-22B sizes in milliseconds of host time.
///
/// All ranks of the tensor group must call train_step() symmetrically (SPMD).
class SimTransformer {
 public:
  /// `shape.batch` is the global batch handled by this tensor group per step.
  SimTransformer(const Env& env, core::TpMode mode, TransformerShape shape);

  /// Account one forward+backward pass over the whole layer stack.
  void train_step();

  /// Per-device peak memory from the analytic model (bytes).
  [[nodiscard]] std::int64_t peak_memory() const;

  /// True if the step fits into this device's memory capacity.
  [[nodiscard]] bool fits() const;

 private:
  void step_1d();
  /// 2D and 2.5D: SUMMA per depth layer of the context's grid (depth 1 = 2D).
  void step_grid();
  void step_3d();

  /// One SUMMA linear fwd+bwd over (M, K) x (K, N) on the row/col grid.
  void summa_linear(std::int64_t m, std::int64_t k, std::int64_t n);

  Env env_;
  core::TpMode mode_;
  TransformerShape shape_;
  int p_;
  collective::CostReplay replay_;
};

}  // namespace ca::tp
