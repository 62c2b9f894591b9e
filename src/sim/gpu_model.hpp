#pragma once

#include <cstdint>
#include <string>

namespace ca::sim {

/// Static description of one accelerator model. Compute throughputs are
/// *achieved* (not peak-datasheet) rates so that simulated step times land in
/// a realistic range; the experiments only compare strategies against each
/// other, so the absolute constant cancels out.
struct GpuModel {
  std::string name;
  std::int64_t memory_bytes = 0;
  double flops_fp16 = 0.0;  ///< achieved half-precision FLOP/s
  double flops_fp32 = 0.0;  ///< achieved single-precision FLOP/s
};

inline constexpr std::int64_t kGiB = std::int64_t{1} << 30;

/// NVIDIA A100 80 GB (Systems I and II in Table 2).
inline GpuModel a100_80gb() {
  return {"A100-80GB", 80 * kGiB, 250e12, 120e12};
}

/// NVIDIA A100 40 GB (System III).
inline GpuModel a100_40gb() {
  return {"A100-40GB", 40 * kGiB, 250e12, 120e12};
}

/// NVIDIA P100 16 GB (System IV).
inline GpuModel p100_16gb() {
  return {"P100-16GB", 16 * kGiB, 18e12, 9e12};
}

}  // namespace ca::sim
