#include "optim/amp.hpp"

#include <cmath>
#include <cstdint>

#include "tensor/convert.hpp"
#include "tensor/half.hpp"

namespace ca::optim {

namespace t = ca::tensor;

bool LossScaler::has_overflow(const std::vector<nn::Parameter*>& params) {
  for (const nn::Parameter* p : params) {
    const auto g = p->grad.data();
    const std::int64_t n = static_cast<std::int64_t>(g.size());
    // Branch-free OR-reduction over the finiteness predicate vectorizes and
    // parallelizes (no early exit, but the scan is memory-bound anyway).
    int bad = 0;
#pragma omp parallel for simd if (parallel : n >= t::kOmpMinElems) \
    schedule(static) reduction(| : bad)
    for (std::int64_t e = 0; e < n; ++e) {
      bad |= !std::isfinite(g[static_cast<std::size_t>(e)]);
    }
    if (bad != 0) return true;
  }
  return false;
}

void MixedPrecision::round_live_to_fp16() {
  for (std::size_t i = 0; i < live_.size(); ++i) {
    auto src = masters_[i]->value.data();
    auto dst = live_[i]->value.data();
    // SIMD convert kernel (master fp32 -> live fp16 storage round-trip).
    t::round_trip_f16(src.data(), dst.data(),
                      static_cast<std::int64_t>(src.size()));
  }
}

bool MixedPrecision::step() {
  const bool overflow = LossScaler::has_overflow(live_);
  const float inv = 1.0f / scaler_.scale();
  if (scaler_.update(overflow)) {
    // unscale into the master grads and step
    for (std::size_t i = 0; i < live_.size(); ++i) {
      auto src = live_[i]->grad.data();
      auto dst = masters_[i]->grad.data();
      const std::int64_t n = static_cast<std::int64_t>(src.size());
#pragma omp parallel for simd if (parallel : n >= t::kOmpMinElems) \
    schedule(static)
      for (std::int64_t e = 0; e < n; ++e) {
        dst[static_cast<std::size_t>(e)] =
            src[static_cast<std::size_t>(e)] * inv;
      }
    }
    inner_->step();
    round_live_to_fp16();
    return true;
  }
  return false;
}

}  // namespace ca::optim
