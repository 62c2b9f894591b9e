#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tensor/shape.hpp"

namespace ca::tensor {

/// Below this many elements of work a loop runs on the calling thread: an
/// OpenMP team's fork/join costs more than the loop saves, and rank threads
/// running tiny kernels side by side would oversubscribe the cores. Every
/// `omp parallel` region in the library gates on it with an
/// `if (parallel : work >= kOmpMinElems)` clause.
inline constexpr std::int64_t kOmpMinElems = 1 << 16;

/// Dense, contiguous, row-major fp32 tensor.
///
/// Copying a Tensor is shallow (the storage is shared, as in PyTorch); use
/// clone() for a deep copy. All arithmetic lives in ops.hpp as free
/// functions; the class itself is a shape + storage handle so that the
/// parallel libraries can cheaply pass activations between simulated devices
/// and explicitly clone() at ownership boundaries.
class Tensor {
 public:
  /// Empty 0-d tensor with a single element.
  Tensor() : Tensor(Shape{{}}) {}

  /// Tensor of `shape` filled with `fill`.
  explicit Tensor(Shape shape, float fill = 0.0f)
      : shape_(std::move(shape)),
        data_(std::make_shared<std::vector<float>>(
            static_cast<std::size_t>(shape_.numel()), fill)) {}

  /// Adopt existing values; `values.size()` must equal `shape.numel()`.
  Tensor(Shape shape, std::vector<float> values)
      : shape_(std::move(shape)),
        data_(std::make_shared<std::vector<float>>(std::move(values))) {
    assert(static_cast<std::int64_t>(data_->size()) == shape_.numel());
  }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t numel() const { return shape_.numel(); }
  [[nodiscard]] std::size_t ndim() const { return shape_.ndim(); }
  [[nodiscard]] std::int64_t dim(std::int64_t i) const { return shape_.dim(i); }

  [[nodiscard]] std::span<float> data() { return {data_->data(), data_->size()}; }
  [[nodiscard]] std::span<const float> data() const {
    return {data_->data(), data_->size()};
  }

  /// Flat element access.
  [[nodiscard]] float& operator[](std::int64_t i) {
    return (*data_)[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] float operator[](std::int64_t i) const {
    return (*data_)[static_cast<std::size_t>(i)];
  }

  /// 2-d element access (row-major).
  [[nodiscard]] float& at(std::int64_t r, std::int64_t c) {
    assert(ndim() == 2);
    return (*this)[r * shape_.dim(1) + c];
  }
  [[nodiscard]] float at(std::int64_t r, std::int64_t c) const {
    assert(ndim() == 2);
    return (*this)[r * shape_.dim(1) + c];
  }

  /// Deep copy.
  [[nodiscard]] Tensor clone() const {
    return Tensor(shape_, std::vector<float>(*data_));
  }

  /// Same storage, different shape; `numel` must be preserved.
  [[nodiscard]] Tensor reshape(Shape shape) const {
    assert(shape.numel() == numel());
    Tensor t;
    t.shape_ = std::move(shape);
    t.data_ = data_;
    return t;
  }

  /// True if both handles share the same storage.
  [[nodiscard]] bool shares_storage_with(const Tensor& other) const {
    return data_ == other.data_;
  }

  /// Fill in place.
  void fill(float v) { std::fill(data_->begin(), data_->end(), v); }

 private:
  Shape shape_;
  std::shared_ptr<std::vector<float>> data_;
};

}  // namespace ca::tensor
