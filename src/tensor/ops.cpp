#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>

#include "tensor/gemm.hpp"

namespace ca::tensor {

namespace {

/// Product of dims [0, dim) — the "outer" loop extent for axis ops.
std::int64_t outer_size(const Shape& s, std::int64_t dim) {
  std::int64_t o = 1;
  for (std::int64_t i = 0; i < dim; ++i) o *= s.dim(i);
  return o;
}

/// Product of dims (dim, ndim) — the "inner" contiguous block size.
std::int64_t inner_size(const Shape& s, std::int64_t dim) {
  std::int64_t in = 1;
  for (std::int64_t i = dim + 1; i < static_cast<std::int64_t>(s.ndim()); ++i)
    in *= s.dim(i);
  return in;
}

std::int64_t normalize_dim(const Shape& s, std::int64_t dim) {
  if (dim < 0) dim += static_cast<std::int64_t>(s.ndim());
  assert(dim >= 0 && dim < static_cast<std::int64_t>(s.ndim()));
  return dim;
}

constexpr float kFloatMin = std::numeric_limits<float>::min();

/// Branch-free e^x for `omp simd` loops (no libm call, so the loops
/// vectorize): x = n ln2 + r with |r| <= ln2/2 by Cody-Waite reduction,
/// e^r = 1 + r + r^2 P(r) with P the degree-5 Cephes expf polynomial, and
/// 2^n assembled in the exponent bits as two halves so that n = 128 and
/// n = -127 stay representable. Within 1.03 ulp of e^x for every float
/// whose e^x is a normal float, with or without FMA contraction. Results
/// below FLT_MIN flush to +0 (never subnormal), results above FLT_MAX
/// overflow to +inf, and NaN propagates.
inline float exp_simd(float x) {
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2Hi = 0.693359375f;  // ln2 split: kLn2Hi * n is exact
  constexpr float kLn2Lo = -2.12194440e-4f;
  constexpr float kRound = 0x1.8p23f;     // adding it rounds to an integer
  // [-88, 89] keeps n in [-127, 128]; NaN passes both (x is the first
  // operand of each comparison).
  const float xc = std::min(std::max(x, -88.0f), 89.0f);
  const float t = xc * kLog2e + kRound;
  const float fn = t - kRound;
  const std::int32_t n =
      std::bit_cast<std::int32_t>(t) - std::bit_cast<std::int32_t>(kRound);
  const float r = xc - fn * kLn2Hi - fn * kLn2Lo;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const float er = p * r * r + r + 1.0f;
  const auto pow2 = [](std::int32_t e) {
    return std::bit_cast<float>(static_cast<std::uint32_t>(e + 127) << 23);
  };
  const std::int32_t n1 = n >> 1;
  const float y = er * pow2(n1) * pow2(n - n1);
  return y < kFloatMin ? 0.0f : y;
}

}  // namespace

// ---- creation ---------------------------------------------------------------

Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }

Tensor arange(std::int64_t n) {
  Tensor t(Shape{n});
  auto d = t.data();
  for (std::int64_t i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = static_cast<float>(i);
  return t;
}

Tensor randn(Shape shape, std::uint64_t seed, float mean, float stddev) {
  Tensor t(std::move(shape));
  std::mt19937_64 gen(seed);
  std::normal_distribution<float> dist(mean, stddev);
  for (auto& v : t.data()) v = dist(gen);
  return t;
}

Tensor uniform(Shape shape, std::uint64_t seed, float lo, float hi) {
  Tensor t(std::move(shape));
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  for (auto& v : t.data()) v = dist(gen);
  return t;
}

// ---- elementwise --------------------------------------------------------------

namespace {
template <class F>
Tensor binary_op(const Tensor& a, const Tensor& b, F f) {
  assert(a.shape() == b.shape());
  Tensor out(a.shape());
  auto pa = a.data(), pb = b.data();
  auto po = out.data();
  const std::size_t n = pa.size();
#pragma omp parallel for schedule(static) \
    if (parallel : std::ssize(po) >= kOmpMinElems)
  for (std::size_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
  return out;
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x * y; });
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out = a.clone();
  auto po = out.data();
#pragma omp parallel for schedule(static) \
    if (parallel : std::ssize(po) >= kOmpMinElems)
  for (std::size_t i = 0; i < po.size(); ++i) po[i] += s;
  return out;
}

Tensor mul_scalar(const Tensor& a, float s) {
  Tensor out = a.clone();
  scale_(out, s);
  return out;
}

void add_(Tensor& a, const Tensor& b) {
  assert(a.shape().numel() == b.shape().numel());
  auto pa = a.data();
  auto pb = b.data();
#pragma omp parallel for schedule(static) \
    if (parallel : std::ssize(pa) >= kOmpMinElems)
  for (std::size_t i = 0; i < pa.size(); ++i) pa[i] += pb[i];
}

void axpy_(Tensor& a, float alpha, const Tensor& x) {
  assert(a.numel() == x.numel());
  auto pa = a.data();
  auto px = x.data();
#pragma omp parallel for schedule(static) \
    if (parallel : std::ssize(pa) >= kOmpMinElems)
  for (std::size_t i = 0; i < pa.size(); ++i) pa[i] += alpha * px[i];
}

void scale_(Tensor& a, float s) {
  auto pa = a.data();
#pragma omp parallel for schedule(static) \
    if (parallel : std::ssize(pa) >= kOmpMinElems)
  for (std::size_t i = 0; i < pa.size(); ++i) pa[i] *= s;
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  Tensor out = a.clone();
  add_bias_(out, bias);
  return out;
}

void add_bias_(Tensor& a, const Tensor& bias) {
  const std::int64_t n = a.dim(-1);
  assert(bias.numel() == n);
  auto pa = a.data();
  auto pb = bias.data();
  const std::int64_t rows = a.numel() / n;
#pragma omp parallel for schedule(static) \
    if (parallel : a.numel() >= kOmpMinElems)
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = pa.data() + r * n;
    for (std::int64_t c = 0; c < n; ++c) row[c] += pb[static_cast<std::size_t>(c)];
  }
}

// ---- matmul --------------------------------------------------------------------

// The three layout variants all funnel into detail::gemm_blocked; a transposed
// operand is expressed as a (row, col) stride swap and handled by the packing
// step. The naive_* triple loops below are the reference the blocked kernel
// is tested against, and still serve the small shapes detail::use_blocked
// turns away (and every small NT shape, see matmul_nt).

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  assert(b.ndim() == 2);
  const std::int64_t k = a.dim(-1);
  assert(k == b.dim(0));
  const std::int64_t n = b.dim(1);
  const std::int64_t m = a.numel() / k;

  auto out_shape = a.shape().with_dim(-1, n);
  Tensor out(out_shape, 0.0f);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
#pragma omp parallel for schedule(static) \
    if (parallel : m * n * k >= kOmpMinElems)
  for (std::int64_t i = 0; i < m; ++i) {
    float* orow = po + i * n;
    const float* arow = pa + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor naive_matmul_tn(const Tensor& a, const Tensor& b) {
  // a: (k, m) possibly with leading dims collapsed into k; b: (k, n)
  const std::int64_t m = a.dim(-1);
  const std::int64_t k = a.numel() / m;
  assert(b.numel() / b.dim(-1) == k);
  const std::int64_t n = b.dim(-1);
  Tensor out(Shape{m, n}, 0.0f);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
#pragma omp parallel for schedule(static) \
    if (parallel : m * n * k >= kOmpMinElems)
  for (std::int64_t i = 0; i < m; ++i) {
    float* orow = po + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[kk * m + i];
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor naive_matmul_nt(const Tensor& a, const Tensor& b) {
  assert(b.ndim() == 2);
  const std::int64_t k = a.dim(-1);
  assert(k == b.dim(1));
  const std::int64_t n = b.dim(0);
  const std::int64_t m = a.numel() / k;
  auto out_shape = a.shape().with_dim(-1, n);
  Tensor out(out_shape, 0.0f);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
#pragma omp parallel for schedule(static) \
    if (parallel : m * n * k >= kOmpMinElems)
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* orow = po + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      orow[j] = acc;
    }
  }
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(b.ndim() == 2);
  const std::int64_t k = a.dim(-1);
  assert(k == b.dim(0));
  const std::int64_t n = b.dim(1);
  const std::int64_t m = a.numel() / k;
  if (!detail::use_blocked(m, n, k)) return naive_matmul(a, b);

  Tensor out(a.shape().with_dim(-1, n), 0.0f);
  detail::gemm_blocked(m, n, k, a.data().data(), k, 1, b.data().data(), n, 1,
                       out.data().data(), /*threaded=*/true);
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(-1);
  const std::int64_t k = a.numel() / m;
  assert(b.numel() / b.dim(-1) == k);
  const std::int64_t n = b.dim(-1);
  if (!detail::use_blocked(m, n, k)) return naive_matmul_tn(a, b);

  Tensor out(Shape{m, n}, 0.0f);
  detail::gemm_blocked(m, n, k, a.data().data(), 1, m, b.data().data(), n, 1,
                       out.data().data(), /*threaded=*/true);
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  assert(b.ndim() == 2);
  const std::int64_t k = a.dim(-1);
  assert(k == b.dim(1));
  const std::int64_t n = b.dim(0);
  const std::int64_t m = a.numel() / k;
  // Not use_blocked: naive_matmul_nt's dot-product loop is not the kernel's
  // multiply-add chain (the compiler vectorizes its in-order sum over
  // separately rounded products), so small NT shapes keep it for their bits.
  if (m * n * k < detail::kBlockedGemmCutoff) return naive_matmul_nt(a, b);

  Tensor out(a.shape().with_dim(-1, n), 0.0f);
  detail::gemm_blocked(m, n, k, a.data().data(), k, 1, b.data().data(), 1, k,
                       out.data().data(), /*threaded=*/true);
  return out;
}

namespace {
enum class BmmMode { NN, NT, TN };

Tensor bmm_impl(const Tensor& a, const Tensor& b, BmmMode mode) {
  assert(a.ndim() == 3 && b.ndim() == 3);
  const std::int64_t batch = a.dim(0);
  assert(batch == b.dim(0));
  std::int64_t m = 0, n = 0, k = 0;
  switch (mode) {
    case BmmMode::NN:
      m = a.dim(1), k = a.dim(2), n = b.dim(2);
      assert(b.dim(1) == k);
      break;
    case BmmMode::NT:
      m = a.dim(1), k = a.dim(2), n = b.dim(1);
      assert(b.dim(2) == k);
      break;
    case BmmMode::TN:
      m = a.dim(2), k = a.dim(1), n = b.dim(2);
      assert(b.dim(1) == k);
      break;
  }
  Tensor out(Shape{batch, m, n}, 0.0f);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  const std::int64_t a_sz = a.dim(1) * a.dim(2);
  const std::int64_t b_sz = b.dim(1) * b.dim(2);

  if (detail::use_blocked(m, n, k)) {
    // Per-batch strides for the blocked kernel: a transposed operand is a
    // stride swap, exactly as in the 2-d matmul variants.
    std::int64_t a_rs = k, a_cs = 1, b_rs = n, b_cs = 1;
    if (mode == BmmMode::TN) a_rs = 1, a_cs = m;
    if (mode == BmmMode::NT) b_rs = 1, b_cs = k;
#pragma omp parallel for schedule(static) \
    if (parallel : batch * m * n * k >= kOmpMinElems)
    for (std::int64_t bt = 0; bt < batch; ++bt) {
      detail::gemm_blocked(m, n, k, pa + bt * a_sz, a_rs, a_cs, pb + bt * b_sz,
                           b_rs, b_cs, po + bt * m * n, /*threaded=*/false);
    }
    return out;
  }

#pragma omp parallel for schedule(static) \
    if (parallel : batch * m * n * k >= kOmpMinElems)
  for (std::int64_t bt = 0; bt < batch; ++bt) {
    const float* A = pa + bt * a_sz;
    const float* B = pb + bt * b_sz;
    float* O = po + bt * m * n;
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        float av = 0.0f;
        switch (mode) {
          case BmmMode::NN:
          case BmmMode::NT:
            av = A[i * k + kk];
            break;
          case BmmMode::TN:
            av = A[kk * m + i];
            break;
        }
        float* orow = O + i * n;
        if (mode == BmmMode::NT) {
          // B is (n, k): column kk of B^T is strided.
          for (std::int64_t j = 0; j < n; ++j) orow[j] += av * B[j * k + kk];
        } else {
          const float* brow = B + kk * n;
          for (std::int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
        }
      }
    }
  }
  return out;
}
}  // namespace

Tensor bmm(const Tensor& a, const Tensor& b) { return bmm_impl(a, b, BmmMode::NN); }
Tensor bmm_nt(const Tensor& a, const Tensor& b) { return bmm_impl(a, b, BmmMode::NT); }
Tensor bmm_tn(const Tensor& a, const Tensor& b) { return bmm_impl(a, b, BmmMode::TN); }

Tensor transpose2d(const Tensor& a) {
  assert(a.ndim() == 2);
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out(Shape{n, m});
  auto pa = a.data();
  auto po = out.data();
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      po[static_cast<std::size_t>(j * m + i)] = pa[static_cast<std::size_t>(i * n + j)];
  return out;
}

// ---- reductions -----------------------------------------------------------------

float sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.data()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  return sum(a) / static_cast<float>(a.numel());
}

float max_abs(const Tensor& a) {
  float m = 0.0f;
  for (float v : a.data()) m = std::max(m, std::fabs(v));
  return m;
}

Tensor sum_to_lastdim(const Tensor& a) {
  const std::int64_t n = a.dim(-1);
  const std::int64_t rows = a.numel() / n;
  Tensor out(Shape{n}, 0.0f);
  auto pa = a.data();
  auto po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = pa.data() + r * n;
    for (std::int64_t c = 0; c < n; ++c) po[static_cast<std::size_t>(c)] += row[c];
  }
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  assert(a.ndim() == 2);
  const std::int64_t rows = a.dim(0), cols = a.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  auto pa = a.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = pa.data() + r * cols;
    out[static_cast<std::size_t>(r)] =
        std::max_element(row, row + cols) - row;
  }
  return out;
}

// ---- nn kernels -------------------------------------------------------------------

Tensor softmax_lastdim_scaled(const Tensor& a, float scale) {
  const std::int64_t n = a.dim(-1);
  const std::int64_t rows = a.numel() / n;
  Tensor out(a.shape());
  auto pa = a.data();
  auto po = out.data();
#pragma omp parallel for schedule(static) \
    if (parallel : a.numel() >= kOmpMinElems)
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = pa.data() + r * n;
    float* y = po.data() + r * n;
    // SIMD sweeps over the row: max, exponentials, their sum, then the
    // normalizing scale. The attention score scale is fused into the loads
    // so callers skip their own scale_ pass over the row. A NaN anywhere in
    // the row reaches the sum and so every output. The sum is a sweep of its
    // own because a double accumulator keeps wide rows normalized to 1e-6
    // whether or not the compiler vectorizes it, while inside the exp loop
    // it stopped that loop from vectorizing.
    float mx = x[0] * scale;
#pragma omp simd reduction(max : mx)
    for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, x[i] * scale);
#pragma omp simd
    for (std::int64_t i = 0; i < n; ++i) y[i] = exp_simd(x[i] * scale - mx);
    double sum = 0.0;
#pragma omp simd reduction(+ : sum)
    for (std::int64_t i = 0; i < n; ++i) sum += y[i];
    const float inv = static_cast<float>(1.0 / sum);
    // Outputs too small for a normal float flush to exact zero, like the
    // exponentials themselves, so no subnormal reaches the backward pass.
#pragma omp simd
    for (std::int64_t i = 0; i < n; ++i) {
      const float v = y[i] * inv;
      y[i] = v < kFloatMin ? 0.0f : v;
    }
  }
  return out;
}

Tensor softmax_lastdim(const Tensor& a) {
  return softmax_lastdim_scaled(a, 1.0f);
}

Tensor softmax_backward_scaled(const Tensor& y, const Tensor& dy, float scale) {
  assert(y.shape() == dy.shape());
  const std::int64_t n = y.dim(-1);
  const std::int64_t rows = y.numel() / n;
  Tensor dx(y.shape());
  auto py = y.data();
  auto pdy = dy.data();
  auto pdx = dx.data();
#pragma omp parallel for schedule(static) \
    if (parallel : y.numel() >= kOmpMinElems)
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* yr = py.data() + r * n;
    const float* dyr = pdy.data() + r * n;
    float* dxr = pdx.data() + r * n;
    float dot = 0.0f;
#pragma omp simd reduction(+ : dot)
    for (std::int64_t i = 0; i < n; ++i) dot += yr[i] * dyr[i];
#pragma omp simd
    for (std::int64_t i = 0; i < n; ++i)
      dxr[i] = yr[i] * (dyr[i] - dot) * scale;
  }
  return dx;
}

Tensor softmax_backward(const Tensor& y, const Tensor& dy) {
  return softmax_backward_scaled(y, dy, 1.0f);
}

Tensor naive_softmax_lastdim(const Tensor& a) {
  const std::int64_t n = a.dim(-1);
  const std::int64_t rows = a.numel() / n;
  Tensor out(a.shape());
  auto pa = a.data();
  auto po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = pa.data() + r * n;
    float* y = po.data() + r * n;
    float mx = x[0];
    for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
    float denom = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      y[i] = std::exp(x[i] - mx);
      denom += y[i];
    }
    const float inv = 1.0f / denom;
    for (std::int64_t i = 0; i < n; ++i) y[i] *= inv;
  }
  return out;
}

Tensor naive_softmax_backward(const Tensor& y, const Tensor& dy) {
  assert(y.shape() == dy.shape());
  const std::int64_t n = y.dim(-1);
  const std::int64_t rows = y.numel() / n;
  Tensor dx(y.shape());
  auto py = y.data();
  auto pdy = dy.data();
  auto pdx = dx.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* yr = py.data() + r * n;
    const float* dyr = pdy.data() + r * n;
    float* dxr = pdx.data() + r * n;
    float dot = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) dot += yr[i] * dyr[i];
    for (std::int64_t i = 0; i < n; ++i) dxr[i] = yr[i] * (dyr[i] - dot);
  }
  return dx;
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluK = 0.044715f;

/// sigmoid(2u) for the tanh-form GELU argument u: 0.5 * (1 + tanh u) without
/// the cancellation of 1 + tanh u in the negative tail. Below 2^-24
/// (v < -4.96) it flushes to exact zero, so dead units emit exact zeros and
/// no tiny gradient reaches the optimizer, whose g^2 would be subnormal.
inline float gelu_sigmoid(float u) {
  const float s = 1.0f / (1.0f + exp_simd(-2.0f * u));
  return s < 0x1p-24f ? 0.0f : s;
}
}  // namespace

// gelu(v) = 0.5 v (1 + tanh u) = v * sigmoid(2u), u = c (v + k v^3).
Tensor gelu(const Tensor& x) {
  Tensor out(x.shape());
  auto px = x.data();
  auto po = out.data();
#pragma omp parallel for simd schedule(static) \
    if (parallel : std::ssize(po) >= kOmpMinElems)
  for (std::size_t i = 0; i < px.size(); ++i) {
    const float v = px[i];
    po[i] = v * gelu_sigmoid(kGeluC * (v + kGeluK * v * v * v));
  }
  return out;
}

// d gelu / dv = s + v * 2 s (1 - s) * du/dv with s = sigmoid(2u), using
// 0.5 (1 - tanh^2 u) = 2 s (1 - s). The flushed tail (s == 0) is exactly 0
// even where du/dv overflows; a NaN s still propagates.
Tensor gelu_backward(const Tensor& x, const Tensor& dy) {
  assert(x.shape() == dy.shape());
  Tensor dx(x.shape());
  auto px = x.data();
  auto pdy = dy.data();
  auto pdx = dx.data();
#pragma omp parallel for simd schedule(static) \
    if (parallel : std::ssize(pdx) >= kOmpMinElems)
  for (std::size_t i = 0; i < px.size(); ++i) {
    const float v = px[i];
    const float s = gelu_sigmoid(kGeluC * (v + kGeluK * v * v * v));
    const float du = kGeluC * (1.0f + 3.0f * kGeluK * v * v);
    pdx[i] = pdy[i] * (s == 0.0f ? 0.0f : s + v * 2.0f * s * (1.0f - s) * du);
  }
  return dx;
}

Tensor relu(const Tensor& x) {
  Tensor out(x.shape());
  auto px = x.data();
  auto po = out.data();
  for (std::size_t i = 0; i < px.size(); ++i) po[i] = px[i] > 0.0f ? px[i] : 0.0f;
  return out;
}

Tensor relu_backward(const Tensor& x, const Tensor& dy) {
  assert(x.shape() == dy.shape());
  Tensor dx(x.shape());
  auto px = x.data();
  auto pdy = dy.data();
  auto pdx = dx.data();
  for (std::size_t i = 0; i < px.size(); ++i) pdx[i] = px[i] > 0.0f ? pdy[i] : 0.0f;
  return dx;
}

Tensor layernorm_forward(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, float eps, Tensor& mean,
                         Tensor& rstd) {
  const std::int64_t h = x.dim(-1);
  assert(gamma.numel() == h && beta.numel() == h);
  const std::int64_t rows = x.numel() / h;
  mean = Tensor(Shape{rows});
  rstd = Tensor(Shape{rows});
  Tensor y(x.shape());
  auto px = x.data();
  auto pg = gamma.data();
  auto pb = beta.data();
  auto pm = mean.data();
  auto pr = rstd.data();
  auto py = y.data();
#pragma omp parallel for schedule(static) \
    if (parallel : x.numel() >= kOmpMinElems)
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = px.data() + r * h;
    float* yr = py.data() + r * h;
    // Fused single read sweep: sum and sum-of-squares together (double
    // accumulators keep var = E[x^2] - mu^2 cancellation-safe for fp32
    // inputs), halving the reduction traffic of the two-pass version.
    double sum = 0.0, sumsq = 0.0;
#pragma omp simd reduction(+ : sum, sumsq)
    for (std::int64_t i = 0; i < h; ++i) {
      const double v = xr[i];
      sum += v;
      sumsq += v * v;
    }
    const double mu = sum / static_cast<double>(h);
    const double var =
        std::max(0.0, sumsq / static_cast<double>(h) - mu * mu);
    const float rs = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    const float muf = static_cast<float>(mu);
    pm[static_cast<std::size_t>(r)] = muf;
    pr[static_cast<std::size_t>(r)] = rs;
#pragma omp simd
    for (std::int64_t i = 0; i < h; ++i)
      yr[i] = (xr[i] - muf) * rs * pg[static_cast<std::size_t>(i)] +
              pb[static_cast<std::size_t>(i)];
  }
  return y;
}

Tensor naive_layernorm_forward(const Tensor& x, const Tensor& gamma,
                               const Tensor& beta, float eps, Tensor& mean,
                               Tensor& rstd) {
  const std::int64_t h = x.dim(-1);
  assert(gamma.numel() == h && beta.numel() == h);
  const std::int64_t rows = x.numel() / h;
  mean = Tensor(Shape{rows});
  rstd = Tensor(Shape{rows});
  Tensor y(x.shape());
  auto px = x.data();
  auto pg = gamma.data();
  auto pb = beta.data();
  auto pm = mean.data();
  auto pr = rstd.data();
  auto py = y.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = px.data() + r * h;
    float* yr = py.data() + r * h;
    double mu = 0.0;
    for (std::int64_t i = 0; i < h; ++i) mu += xr[i];
    mu /= static_cast<double>(h);
    double var = 0.0;
    for (std::int64_t i = 0; i < h; ++i) {
      const double d = xr[i] - mu;
      var += d * d;
    }
    var /= static_cast<double>(h);
    const float rs = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    pm[static_cast<std::size_t>(r)] = static_cast<float>(mu);
    pr[static_cast<std::size_t>(r)] = rs;
    for (std::int64_t i = 0; i < h; ++i)
      yr[i] = (xr[i] - static_cast<float>(mu)) * rs * pg[static_cast<std::size_t>(i)] +
              pb[static_cast<std::size_t>(i)];
  }
  return y;
}

Tensor layernorm_backward(const Tensor& x, const Tensor& dy,
                          const Tensor& gamma, const Tensor& mean,
                          const Tensor& rstd, Tensor& dgamma, Tensor& dbeta) {
  const std::int64_t h = x.dim(-1);
  const std::int64_t rows = x.numel() / h;
  assert(dgamma.numel() == h && dbeta.numel() == h);
  Tensor dx(x.shape());
  auto px = x.data();
  auto pdy = dy.data();
  auto pg = gamma.data();
  auto pm = mean.data();
  auto pr = rstd.data();
  auto pdx = dx.data();
  auto pdg = dgamma.data();
  auto pdb = dbeta.data();
  // dx rows are independent — parallelize over rows.
#pragma omp parallel for schedule(static) \
    if (parallel : x.numel() >= kOmpMinElems)
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = px.data() + r * h;
    const float* dyr = pdy.data() + r * h;
    float* dxr = pdx.data() + r * h;
    const float mu = pm[static_cast<std::size_t>(r)];
    const float rs = pr[static_cast<std::size_t>(r)];
    // xhat = (x - mu) * rs ; dy_hat = dy * gamma
    float sum_dyhat = 0.0f, sum_dyhat_xhat = 0.0f;
#pragma omp simd reduction(+ : sum_dyhat, sum_dyhat_xhat)
    for (std::int64_t i = 0; i < h; ++i) {
      const float xhat = (xr[i] - mu) * rs;
      const float dyhat = dyr[i] * pg[static_cast<std::size_t>(i)];
      sum_dyhat += dyhat;
      sum_dyhat_xhat += dyhat * xhat;
    }
    const float inv_h = 1.0f / static_cast<float>(h);
#pragma omp simd
    for (std::int64_t i = 0; i < h; ++i) {
      const float xhat = (xr[i] - mu) * rs;
      const float dyhat = dyr[i] * pg[static_cast<std::size_t>(i)];
      dxr[i] = rs * (dyhat - inv_h * sum_dyhat - xhat * inv_h * sum_dyhat_xhat);
    }
  }
  // dgamma/dbeta are per-column sums over rows — parallelize over columns
  // (race-free: each thread owns a disjoint set of columns). Per-column
  // double partials accumulate in ascending-row order, then one float add
  // preserves the grad-accumulation contract (+= into caller buffers).
#pragma omp parallel for schedule(static) \
    if (parallel : x.numel() >= kOmpMinElems)
  for (std::int64_t i = 0; i < h; ++i) {
    double dg = 0.0, db = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) {
      const float xv = px[static_cast<std::size_t>(r * h + i)];
      const float dyv = pdy[static_cast<std::size_t>(r * h + i)];
      const float xhat = (xv - pm[static_cast<std::size_t>(r)]) *
                         pr[static_cast<std::size_t>(r)];
      dg += static_cast<double>(dyv) * xhat;
      db += dyv;
    }
    pdg[static_cast<std::size_t>(i)] += static_cast<float>(dg);
    pdb[static_cast<std::size_t>(i)] += static_cast<float>(db);
  }
  return dx;
}

Tensor naive_layernorm_backward(const Tensor& x, const Tensor& dy,
                                const Tensor& gamma, const Tensor& mean,
                                const Tensor& rstd, Tensor& dgamma,
                                Tensor& dbeta) {
  const std::int64_t h = x.dim(-1);
  const std::int64_t rows = x.numel() / h;
  assert(dgamma.numel() == h && dbeta.numel() == h);
  Tensor dx(x.shape());
  auto px = x.data();
  auto pdy = dy.data();
  auto pg = gamma.data();
  auto pm = mean.data();
  auto pr = rstd.data();
  auto pdx = dx.data();
  auto pdg = dgamma.data();
  auto pdb = dbeta.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = px.data() + r * h;
    const float* dyr = pdy.data() + r * h;
    float* dxr = pdx.data() + r * h;
    const float mu = pm[static_cast<std::size_t>(r)];
    const float rs = pr[static_cast<std::size_t>(r)];
    float sum_dyhat = 0.0f, sum_dyhat_xhat = 0.0f;
    for (std::int64_t i = 0; i < h; ++i) {
      const float xhat = (xr[i] - mu) * rs;
      const float dyhat = dyr[i] * pg[static_cast<std::size_t>(i)];
      sum_dyhat += dyhat;
      sum_dyhat_xhat += dyhat * xhat;
      pdg[static_cast<std::size_t>(i)] += dyr[i] * xhat;
      pdb[static_cast<std::size_t>(i)] += dyr[i];
    }
    const float inv_h = 1.0f / static_cast<float>(h);
    for (std::int64_t i = 0; i < h; ++i) {
      const float xhat = (xr[i] - mu) * rs;
      const float dyhat = dyr[i] * pg[static_cast<std::size_t>(i)];
      dxr[i] = rs * (dyhat - inv_h * sum_dyhat - xhat * inv_h * sum_dyhat_xhat);
    }
  }
  return dx;
}

float cross_entropy(const Tensor& logits, std::span<const std::int64_t> labels,
                    Tensor& dlogits) {
  assert(logits.ndim() == 2);
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  assert(static_cast<std::int64_t>(labels.size()) == n);
  if (dlogits.shape() != logits.shape()) dlogits = Tensor(logits.shape());
  auto pd = dlogits.data();
  auto pl = logits.data();
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  // Single pass per row: the exponentials written into dlogits and their
  // max/denominator serve both the loss (log-softmax of the true class) and
  // the gradient, with the softmax normalization and the 1/n batch scaling
  // fused into one sweep.
#pragma omp parallel for schedule(static) \
    if (parallel : logits.numel() >= kOmpMinElems) reduction(+ : loss)
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int64_t y = labels[static_cast<std::size_t>(r)];
    assert(y >= 0 && y < c);
    const float* row = pl.data() + r * c;
    float* g = pd.data() + r * c;
    float mx = row[0];
    for (std::int64_t i = 1; i < c; ++i) mx = std::max(mx, row[i]);
    double denom = 0.0;
    for (std::int64_t i = 0; i < c; ++i) {
      g[i] = std::exp(row[i] - mx);
      denom += static_cast<double>(g[i]);
    }
    loss -= static_cast<double>(row[y] - mx) - std::log(denom);
    const float inv = inv_n / static_cast<float>(denom);
    for (std::int64_t i = 0; i < c; ++i) g[i] *= inv;
    g[y] -= inv_n;
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

// ---- shape ops ------------------------------------------------------------------

Tensor narrow(const Tensor& a, std::int64_t dim, std::int64_t start,
              std::int64_t len) {
  dim = normalize_dim(a.shape(), dim);
  const std::int64_t extent = a.dim(dim);
  assert(start >= 0 && len > 0 && start + len <= extent);
  const std::int64_t outer = outer_size(a.shape(), dim);
  const std::int64_t inner = inner_size(a.shape(), dim);
  Tensor out(a.shape().with_dim(dim, len));
  auto pa = a.data();
  auto po = out.data();
  for (std::int64_t o = 0; o < outer; ++o) {
    const float* src = pa.data() + (o * extent + start) * inner;
    float* dst = po.data() + o * len * inner;
    std::copy(src, src + len * inner, dst);
  }
  return out;
}

Tensor chunk(const Tensor& a, std::int64_t dim, std::int64_t nchunks,
             std::int64_t idx) {
  dim = normalize_dim(a.shape(), dim);
  const std::int64_t extent = a.dim(dim);
  assert(extent % nchunks == 0);
  const std::int64_t len = extent / nchunks;
  return narrow(a, dim, idx * len, len);
}

Tensor cat(std::span<const Tensor> parts, std::int64_t dim) {
  assert(!parts.empty());
  dim = normalize_dim(parts[0].shape(), dim);
  std::int64_t total = 0;
  for (const auto& p : parts) total += p.dim(dim);
  Tensor out(parts[0].shape().with_dim(dim, total));
  const std::int64_t outer = outer_size(out.shape(), dim);
  const std::int64_t inner = inner_size(out.shape(), dim);
  auto po = out.data();
  std::int64_t offset = 0;
  for (const auto& p : parts) {
    assert(p.shape().with_dim(dim, 0) == out.shape().with_dim(dim, 0));
    const std::int64_t len = p.dim(dim);
    auto pp = p.data();
    for (std::int64_t o = 0; o < outer; ++o) {
      const float* src = pp.data() + o * len * inner;
      float* dst = po.data() + (o * total + offset) * inner;
      std::copy(src, src + len * inner, dst);
    }
    offset += len;
  }
  return out;
}

// ---- comparison -----------------------------------------------------------------

float max_diff(const Tensor& a, const Tensor& b) {
  assert(a.numel() == b.numel());
  auto pa = a.data();
  auto pb = b.data();
  float m = 0.0f;
  for (std::size_t i = 0; i < pa.size(); ++i)
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  auto pa = a.data();
  auto pb = b.data();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const float tol = atol + rtol * std::fabs(pb[i]);
    if (std::fabs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

}  // namespace ca::tensor
