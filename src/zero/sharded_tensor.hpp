#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "collective/group.hpp"
#include "tensor/ops.hpp"

namespace ca::zero {

/// Lifecycle state of a sharded tensor (Section 3.2: "customizable sharding
/// strategies and life-cycle hooks for easy modification of the training
/// workflow").
enum class TensorState {
  kHold,     ///< only the local shard is materialized
  kCompute,  ///< gathered: the full tensor is materialized on this rank
};

/// The padded-chunk layout every ZeRO shard follows: `numel` elements split
/// over `world` members in equal chunks of ceil(numel / world). Member
/// `index` owns the flat range [begin, end) of chunk `index`, clipped to
/// numel (so a tail chunk may be short or empty); the wire always moves
/// whole chunks, the tail zero-padded.
struct ShardLayout {
  std::int64_t numel = 0;   ///< elements of the full tensor
  std::int64_t chunk = 0;   ///< padded chunk size every member holds
  std::int64_t padded = 0;  ///< chunk * world: the full size on the wire
  std::int64_t begin = 0;
  std::int64_t end = 0;
  [[nodiscard]] std::int64_t size() const { return end - begin; }
};

[[nodiscard]] ShardLayout shard_layout(std::int64_t numel, int index,
                                       int world);

/// Copy `layout`'s range of `full` (layout.numel elements) into `chunk`
/// (layout.chunk elements), zero-filling the padding after it.
void copy_chunk(std::span<const float> full, const ShardLayout& layout,
                std::span<float> chunk);

/// Observer hooks fired on every lifecycle transition; users plug these in
/// to trace, prefetch, or account placement decisions.
struct LifecycleHooks {
  std::function<void(const std::string& name, TensorState from,
                     TensorState to)>
      on_state_change;
};

/// The unified sharded-tensor interface: a tensor whose full value is
/// logically (numel) elements but physically only this rank's chunk of its
/// shard_layout, unless gathered into kCompute state. Gather/release drive
/// real all-gather traffic on the owning process group; ZeRO-3 parameter
/// sharding is built on this.
class ShardedTensor {
 public:
  /// Shard `full` over `group`; every member constructs with the same full
  /// content (e.g. from a shared seed) and keeps only its shard.
  ShardedTensor(std::string name, const tensor::Tensor& full,
                collective::Group& group, int grank, LifecycleHooks hooks = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TensorState state() const { return state_; }

  /// This rank's padded chunk (always materialized). Handles copied from it
  /// share its storage: ZeRO-3 updates its master weights here in place.
  [[nodiscard]] tensor::Tensor& shard() { return shard_; }

  /// Transition to kCompute: all-gather the shards; returns the full tensor.
  /// SPMD — every group member must call it together.
  tensor::Tensor& gather();

  /// Transition back to kHold: write my range of `full` (if given) back into
  /// the shard and drop the gathered buffer.
  void release(const tensor::Tensor* updated_full = nullptr);

 private:
  void fire(TensorState to);

  std::string name_;
  collective::Group& group_;
  int grank_;
  tensor::Shape full_shape_;
  ShardLayout layout_;
  tensor::Tensor shard_;
  tensor::Tensor gathered_;
  TensorState state_ = TensorState::kHold;
  LifecycleHooks hooks_;
};

}  // namespace ca::zero
