#include "zero/sharded_tensor.hpp"

#include <algorithm>
#include <cassert>

namespace ca::zero {

namespace t = ca::tensor;

ShardLayout shard_layout(std::int64_t numel, int index, int world) {
  const std::int64_t chunk = (numel + world - 1) / world;
  const std::int64_t begin = std::min(numel, index * chunk);
  return {numel, chunk, chunk * world, begin, std::min(numel, begin + chunk)};
}

void copy_chunk(std::span<const float> full, const ShardLayout& layout,
                std::span<float> chunk) {
  assert(static_cast<std::int64_t>(full.size()) == layout.numel &&
         static_cast<std::int64_t>(chunk.size()) == layout.chunk);
  const auto rest = std::copy(full.begin() + layout.begin,
                              full.begin() + layout.end, chunk.begin());
  std::fill(rest, chunk.end(), 0.0f);
}

ShardedTensor::ShardedTensor(std::string name, const t::Tensor& full,
                             collective::Group& group, int grank,
                             LifecycleHooks hooks)
    : name_(std::move(name)),
      group_(group),
      grank_(grank),
      full_shape_(full.shape()),
      layout_(shard_layout(full.numel(), group.index_of(grank), group.size())),
      shard_(t::Shape{layout_.chunk}),
      hooks_(std::move(hooks)) {
  copy_chunk(full.data(), layout_, shard_.data());
}

void ShardedTensor::fire(TensorState to) {
  if (hooks_.on_state_change) hooks_.on_state_change(name_, state_, to);
  state_ = to;
}

t::Tensor& ShardedTensor::gather() {
  assert(state_ == TensorState::kHold);
  t::Tensor wire(t::Shape{layout_.padded});
  group_.all_gather(grank_, shard_.data(), wire.data());
  // Unpadded, the wire buffer is the full tensor; only a ragged tail needs
  // the copy that trims it.
  if (layout_.padded != layout_.numel) {
    wire = t::narrow(wire, 0, 0, layout_.numel);
  }
  gathered_ = wire.reshape(full_shape_);
  fire(TensorState::kCompute);
  return gathered_;
}

void ShardedTensor::release(const t::Tensor* updated_full) {
  assert(state_ == TensorState::kCompute);
  if (updated_full != nullptr) {
    copy_chunk(updated_full->data(), layout_, shard_.data());
  }
  gathered_ = t::Tensor();
  fire(TensorState::kHold);
}

}  // namespace ca::zero
