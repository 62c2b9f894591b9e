#include "zero/sharded_tensor.hpp"

#include <algorithm>
#include <cassert>

namespace ca::zero {

namespace t = ca::tensor;

ShardingStrategy::Range ShardingStrategy::shard_range(std::int64_t numel,
                                                      int rank,
                                                      int world) const {
  const std::int64_t padded = (numel + world - 1) / world;
  const std::int64_t begin = std::min(numel, rank * padded);
  const std::int64_t end = std::min(numel, begin + padded);
  return {begin, end};
}

ShardedTensor::ShardedTensor(std::string name, const t::Tensor& full,
                             collective::Group& group, int grank,
                             const ShardingStrategy& strategy,
                             LifecycleHooks hooks)
    : name_(std::move(name)),
      group_(group),
      grank_(grank),
      full_shape_(full.shape()),
      full_numel_(full.numel()),
      range_(strategy.shard_range(full_numel_, group.index_of(grank),
                                  group.size())),
      padded_shard_((full_numel_ + group.size() - 1) / group.size()),
      shard_(t::Shape{padded_shard_}, 0.0f),
      hooks_(std::move(hooks)) {
  // The wire format is padded-equal chunks; the strategy's logical range
  // must live inside this rank's padded chunk.
  const std::int64_t chunk_begin = group.index_of(grank) * padded_shard_;
  assert(range_.begin >= chunk_begin &&
         range_.end <= chunk_begin + padded_shard_);
  auto src = full.data();
  auto dst = shard_.data();
  const std::int64_t copy_begin = std::min(full_numel_, chunk_begin);
  const std::int64_t copy_end = std::min(full_numel_, chunk_begin + padded_shard_);
  for (std::int64_t i = copy_begin; i < copy_end; ++i) {
    dst[static_cast<std::size_t>(i - chunk_begin)] =
        src[static_cast<std::size_t>(i)];
  }
}

void ShardedTensor::fire(TensorState to) {
  if (hooks_.on_state_change) hooks_.on_state_change(name_, state_, to);
  state_ = to;
}

t::Tensor& ShardedTensor::gather() {
  assert(state_ == TensorState::kHold);
  t::Tensor wire(t::Shape{padded_shard_ * group_.size()});
  group_.all_gather(grank_, shard_.data(), wire.data());
  // Unpadded, the wire buffer is the full tensor; only a ragged tail needs
  // the copy that trims it.
  if (wire.numel() != full_numel_) wire = t::narrow(wire, 0, 0, full_numel_);
  gathered_ = wire.reshape(full_shape_);
  fire(TensorState::kCompute);
  return gathered_;
}

void ShardedTensor::release(const t::Tensor* updated_full) {
  assert(state_ == TensorState::kCompute);
  if (updated_full != nullptr) {
    assert(updated_full->numel() == full_numel_);
    const std::int64_t chunk_begin = group_.index_of(grank_) * padded_shard_;
    const std::int64_t copy_end =
        std::min(full_numel_, chunk_begin + padded_shard_);
    auto src = updated_full->data();
    auto dst = shard_.data();
    for (std::int64_t i = std::min(full_numel_, chunk_begin); i < copy_end; ++i) {
      dst[static_cast<std::size_t>(i - chunk_begin)] =
          src[static_cast<std::size_t>(i)];
    }
  }
  gathered_ = t::Tensor();
  fire(TensorState::kHold);
}

}  // namespace ca::zero
