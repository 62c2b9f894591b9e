#pragma once

#include <cstdint>

#include "core/config.hpp"

namespace ca::tp {

/// Closed-form per-device peak memory (bytes) of the paper's Figure 8 range
/// test — a model of two chained linear layers (hidden -> hidden -> hidden)
/// on input (batch, hidden) — under each tensor-parallel mode.
///
/// The formulas mirror the allocation accounting of the functional layers
/// exactly (parameters+gradients at construction; saved inputs/outputs held
/// from forward to backward; SUMMA broadcast buffers and 2.5D gathered weight
/// blocks as transient peaks). tests/test_tp.cpp cross-validates them
/// against measured MemoryTracker peaks at small sizes, which makes the
/// large-scale extrapolation in bench_memory_range trustworthy. 2D is the
/// 2.5D grid at depth 1, so two_layer_peak_2p5d(s, p, 1) is its peak.
struct TwoLayerShape {
  std::int64_t batch = 0;
  std::int64_t hidden = 0;
  std::int64_t bytes_per_elem = 4;
};

std::int64_t two_layer_peak_1d(const TwoLayerShape& s, int p);
std::int64_t two_layer_peak_2p5d(const TwoLayerShape& s, int p, int depth);
std::int64_t two_layer_peak_3d(const TwoLayerShape& s, int p);

std::int64_t two_layer_peak(core::TpMode mode, const TwoLayerShape& s, int p,
                            int depth = 1);

/// Per-device memory of one Transformer layer stack under tensor parallelism
/// — used by the throughput benches to find the largest batch that fits
/// (the paper trains "with increasing batch size until out-of-memory").
///
/// Counts, in `bytes_per_elem` units:
///  * parameters + gradients: 12*h^2 per layer, sharded by the mode's weight
///    partitioning (1D/2D/3D: 1/p; 2.5D: 1/p with depth-sharded storage),
///  * activations that must be held for backward, with the mode's layout:
///    1D holds the replicated (b,s,h) block inputs/outputs, advanced modes
///    hold 1/p shards; attention scores b*a*s^2 are sharded by heads (1D)
///    or by the grid (2D/2.5D/3D).
struct TransformerShape {
  std::int64_t layers = 0;
  std::int64_t hidden = 0;
  std::int64_t heads = 0;
  std::int64_t batch = 0;   ///< per-step global batch on this tensor group
  std::int64_t seq = 0;
  std::int64_t bytes_per_elem = 2;  ///< fp16 training
  /// Adam moments kept in fp32 alongside fp16 params (0 disables).
  bool with_optimizer = false;
};

std::int64_t transformer_peak(core::TpMode mode, const TransformerShape& s,
                              int p, int depth = 1);

}  // namespace ca::tp
