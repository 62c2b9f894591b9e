#include "tp/memory_model.hpp"

#include <cassert>
#include <stdexcept>

namespace ca::tp {

namespace {
std::int64_t isqrt_side(int p) {
  const int q = core::Config::exact_sqrt(p);
  if (q == 0) throw std::invalid_argument("not a square device count");
  return q;
}
std::int64_t icbrt_side(int p) {
  const int l = core::Config::exact_cbrt(p);
  if (l == 0) throw std::invalid_argument("not a cubic device count");
  return l;
}
}  // namespace

std::int64_t two_layer_peak_1d(const TwoLayerShape& s, int p) {
  const std::int64_t b = s.batch, h = s.hidden;
  // col layer: W (h, h/p) + bias (h/p); row layer: W (h/p, h) + bias (h);
  // each with a same-sized gradient.
  const std::int64_t params = 2 * (h * h / p + h / p) + 2 * (h * h / p + h);
  // acts held through backward: col{x: b*h, y: b*h/p} + row{x: b*h/p, y: b*h}
  const std::int64_t acts = 2 * b * h + 2 * b * h / p;
  return (params + acts) * s.bytes_per_elem;
}

std::int64_t two_layer_peak_2p5d(const TwoLayerShape& s, int p, int depth) {
  const std::int64_t b = s.batch, h = s.hidden;
  assert(p % depth == 0);
  const std::int64_t k = isqrt_side(p / depth);
  const std::int64_t d = depth;
  const std::int64_t params = 2 * 2 * (h * h / p + h / k);
  // end-of-forward holds 4 activation blocks of b*h/p; the peak comes during
  // the second layer's backward dX pass: 4 held blocks + a b*h/p partial +
  // the transient broadcast weight block (d*h^2/p). For d > 1 the block is
  // gathered over depth first, so the gathered copy (d*h^2/p) is live too;
  // at depth 1 (2D) the slab is the block and is broadcast in place.
  const std::int64_t peak_acts =
      5 * b * h / p + (d > 1 ? 2 * d : 1) * h * h / p;
  return (params + peak_acts) * s.bytes_per_elem;
}

std::int64_t two_layer_peak_3d(const TwoLayerShape& s, int p) {
  const std::int64_t b = s.batch, h = s.hidden;
  const std::int64_t l = icbrt_side(p);
  const std::int64_t params = 2 * 2 * (h * h / p + h / l);
  // each layer holds only its local input and output shards (b*h/p each);
  // the gathered A/B/partial blocks are streamed through memory in
  // double-buffered 1/8 slices (see Linear3D), so one layer's transient is
  // 2*(A + B + Ypartial)/8 with A = b*h/l^2, B = h^2/l^2, Yp = b*h/l^2.
  const std::int64_t held = 2 * 2 * b * h / p;
  const std::int64_t transient =
      2 * (2 * b * h / (l * l) + h * h / (l * l)) / 8;
  return (params + held + transient) * s.bytes_per_elem;
}

std::int64_t two_layer_peak(core::TpMode mode, const TwoLayerShape& s, int p,
                            int depth) {
  switch (mode) {
    case core::TpMode::k1d: return two_layer_peak_1d(s, p);
    case core::TpMode::k3d: return two_layer_peak_3d(s, p);
    case core::TpMode::kNone:
      return (2 * 2 * (s.hidden * s.hidden + s.hidden) + 4 * s.batch * s.hidden) *
             s.bytes_per_elem;
    default: return two_layer_peak_2p5d(s, p, depth);  // the grid modes
  }
}

std::int64_t transformer_peak(core::TpMode mode, const TransformerShape& s,
                              int p, int depth) {
  const std::int64_t L = s.layers, h = s.hidden, b = s.batch, sq = s.seq;
  const std::int64_t bsh = b * sq * h;
  const std::int64_t scores = b * s.heads * sq * sq;

  // 12 h^2 weights per layer (qkv 3h^2 + proj h^2 + mlp 8h^2), + grads.
  std::int64_t param_shard = 2 * 12 * h * h / p * L;
  // fp32 Adam moments (2x) + fp32 master weights on fp16 params.
  const std::int64_t opt =
      s.with_optimizer ? (12 * h * h / p * L) * (16 / s.bytes_per_elem) : 0;

  // Activations that live until backward, per layer (block inputs/outputs,
  // qkv/attention intermediates), with the mode's sharding of the (b,s,h)
  // blocks and of the score matrices.
  std::int64_t acts = 0;
  switch (mode) {
    case core::TpMode::kNone:
      acts = L * (8 * bsh + scores);
      break;
    case core::TpMode::k1d:
      // replicated block input/output + LN outputs (4*bsh), sharded
      // qkv/ctx/mlp intermediates (~8*bsh/p), heads-sharded scores.
      acts = L * (4 * bsh + 8 * bsh / p + scores / p);
      break;
    default:  // the grid modes and 3D
      acts = L * (12 * bsh / p + scores / p);
      // the grid's transient depth-gathered weight block (largest: the 4h^2
      // mlp fc1 block); a depth-1 grid (2D) uses its block in place.
      if (core::is_grid(mode) && depth > 1) {
        param_shard += depth * 4 * h * h / p;
      }
      break;
  }
  return (param_shard + acts) * s.bytes_per_elem + opt;
}

}  // namespace ca::tp
