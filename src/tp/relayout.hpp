#pragma once

#include <span>
#include <string>

#include "collective/group.hpp"
#include "nn/module.hpp"
#include "tensor/tensor.hpp"

namespace ca::tp {

/// One description of where a sharded tensor lives (DESIGN.md section 13):
/// every TP layer builds its parameters from an nn::ShardSpec with
/// shard_parameter, and the checkpoint moves tensors between that local
/// shard form and the full (unsharded) form it stores through the same
/// spec. Because the full form is layout-free, state saved on any tensor
/// grid (1D row/col, 2D, 2.5D, 3D, or plain replication) restores onto any
/// other.

/// The serial nn::Linear's seeded (in, out) weight. Every rank of every
/// layout cuts its shard out of it, so the shards together are bit-identical
/// to the serial layer built from the same seed.
[[nodiscard]] tensor::Tensor serial_weight(std::int64_t in, std::int64_t out,
                                           std::uint64_t seed);

/// The parameter `name` whose value is `spec`'s block of the serial tensor
/// `full` (slice_from_full), whose grad is zeros, and whose shard is `spec`.
/// Every rank passes the same `full`; throws std::invalid_argument when the
/// spec does not divide it.
[[nodiscard]] nn::Parameter shard_parameter(std::string name,
                                            const tensor::Tensor& full,
                                            const nn::ShardSpec& spec);

/// Scatter-add this rank's local block into the full buffer at the
/// positions `spec` describes. Pure local math; `full` must hold
/// spec.full_numel() elements. Call only on the spec's primary replica —
/// redundant copies would double-count under the reducing gather.
void add_to_full(const nn::ShardSpec& spec, std::span<const float> local,
                 std::span<float> full);

/// Slice this rank's local block out of the full buffer (the inverse of
/// add_to_full; valid on every replica, primary or not).
void slice_from_full(const nn::ShardSpec& spec, std::span<const float> full,
                     std::span<float> local);

/// Collective gather of a sharded tensor into full form: zeros + primary
/// scatter-add + one fp32 all-reduce over `group`. Disjoint blocks summed
/// with zeros are exact in fp32, so the result is bit-identical on every
/// member regardless of the configured wire dtype (checkpoint traffic is
/// pinned to kF32 for exactly that reason). `local` may be the parameter
/// value or any same-shaped per-element state (Adam moments).
[[nodiscard]] tensor::Tensor gather_full(collective::Group& group, int grank,
                                         const nn::ShardSpec& spec,
                                         const tensor::Tensor& local);

/// Shape of the local tensor `spec` describes (rows x cols, or 1-D).
[[nodiscard]] tensor::Shape local_shape(const nn::ShardSpec& spec);

}  // namespace ca::tp
