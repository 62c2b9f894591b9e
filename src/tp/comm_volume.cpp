#include "tp/comm_volume.hpp"

#include <cassert>
#include <stdexcept>

namespace ca::tp {

std::int64_t comm_volume_1d(const MatmulShape& m, int p) {
  // Table 1: 2(p-1) * S_X — one ring all-reduce of the activation in forward
  // (row-parallel output) and one in backward (column-parallel input grad).
  return 2 * (p - 1) * m.sx();
}

std::int64_t comm_volume_2p5d(const MatmulShape& m, int p, int depth) {
  assert(depth >= 1 && p % depth == 0);
  const int k = core::Config::exact_sqrt(p / depth);
  if (k == 0) throw std::invalid_argument("2.5D needs d*k^2 devices");
  // Table 1: 3(k-1) * (S_X / d + S_W) — three SUMMA passes (Y, dX, dW), each
  // streaming an activation-sized and a weight-sized operand per grid step;
  // each depth layer runs them over a 1/d slice of the batch but the full
  // weight.
  return 3 * (k - 1) * (m.sx() / depth + m.sw());
}

std::int64_t comm_volume_3d(const MatmulShape& m, int p) {
  const int l = core::Config::exact_cbrt(p);
  if (l == 0) throw std::invalid_argument("3D needs a cubic device count");
  // Table 1: 2(l-1)/l * (S_X + S_W + S_Y) — forward all-gathers X and W and
  // reduce-scatters Y; backward mirrors it.
  return 2 * (l - 1) * (m.sx() + m.sw() + m.sy()) / l;
}

std::int64_t comm_volume(core::TpMode mode, const MatmulShape& m, int p,
                         int depth) {
  switch (mode) {
    case core::TpMode::k1d: return comm_volume_1d(m, p);
    case core::TpMode::k2d:  // the 2.5D grid at depth 1
    case core::TpMode::k2p5d: return comm_volume_2p5d(m, p, depth);
    case core::TpMode::k3d: return comm_volume_3d(m, p);
    case core::TpMode::kNone: return 0;
  }
  return 0;
}

}  // namespace ca::tp
