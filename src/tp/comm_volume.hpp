#pragma once

#include <cstdint>

#include "core/config.hpp"

namespace ca::tp {

/// Problem size for the Table 1 analysis: Y = W X with X:(b, s, h),
/// W:(h, h), Y:(b, s, h).
struct MatmulShape {
  std::int64_t b = 32;
  std::int64_t s = 512;
  std::int64_t h = 1024;

  [[nodiscard]] std::int64_t sx() const { return b * s * h; }
  [[nodiscard]] std::int64_t sw() const { return h * h; }
  [[nodiscard]] std::int64_t sy() const { return b * s * h; }
};

/// Total communication volume (number of elements transferred, summed over
/// devices) of one forward+backward linear layer under each tensor-parallel
/// mode — the exact formulas of Table 1.
///
/// `p` is the total device count; for 2.5D, `depth` is d with p = d * k^2.
/// 2D is the 2.5D grid at depth 1, where Table 1's 2.5D row is 2D's.
std::int64_t comm_volume_1d(const MatmulShape& m, int p);
std::int64_t comm_volume_2p5d(const MatmulShape& m, int p, int depth);
std::int64_t comm_volume_3d(const MatmulShape& m, int p);

/// Dispatch on mode; `depth` is 1 for 2D and ignored by 1D and 3D.
std::int64_t comm_volume(core::TpMode mode, const MatmulShape& m, int p,
                         int depth = 1);

}  // namespace ca::tp
