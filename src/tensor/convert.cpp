#include "tensor/convert.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/half.hpp"
#include "tensor/tensor.hpp"

namespace ca::tensor {
void round_trip_f16(const float* src, float* dst, std::int64_t n) {
#pragma omp parallel for simd if (parallel : n >= kOmpMinElems) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) dst[i] = fp16_round_trip(src[i]);
}

void round_trip_bf16(const float* src, float* dst, std::int64_t n) {
#pragma omp parallel for simd if (parallel : n >= kOmpMinElems) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) dst[i] = bf16_round_trip(src[i]);
}

void wire_round_trip(Dtype wire, const float* src, float* dst, std::int64_t n) {
  switch (wire) {
    case Dtype::kF32:
      if (dst != src && n > 0) {
        std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
      }
      return;
    case Dtype::kF16: round_trip_f16(src, dst, n); return;
    case Dtype::kBF16: round_trip_bf16(src, dst, n); return;
  }
}

}  // namespace ca::tensor
