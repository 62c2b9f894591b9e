// Unit tests for the tensor substrate: shapes, storage semantics, kernels,
// fp16 conversion, and shape ops. Gradient kernels are checked against
// central finite differences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "tensor/half.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace t = ca::tensor;

TEST(Shape, BasicProperties) {
  t::Shape s{2, 3, 4};
  EXPECT_EQ(s.ndim(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.strides(), (std::vector<std::int64_t>{12, 4, 1}));
  EXPECT_EQ(s.with_dim(-1, 7), (t::Shape{2, 3, 7}));
  EXPECT_EQ(s.str(), "[2, 3, 4]");
}

TEST(Shape, ScalarShape) {
  t::Shape s{};
  EXPECT_EQ(s.ndim(), 0u);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Tensor, SharedStorageOnCopy) {
  t::Tensor a(t::Shape{4}, 1.0f);
  t::Tensor b = a;  // shallow
  b[0] = 42.0f;
  EXPECT_EQ(a[0], 42.0f);
  EXPECT_TRUE(a.shares_storage_with(b));

  t::Tensor c = a.clone();
  c[0] = 7.0f;
  EXPECT_EQ(a[0], 42.0f);
  EXPECT_FALSE(a.shares_storage_with(c));
}

TEST(Tensor, ReshapeSharesStorage) {
  t::Tensor a(t::Shape{2, 6}, 3.0f);
  t::Tensor b = a.reshape(t::Shape{3, 4});
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(b.shape(), (t::Shape{3, 4}));
}

TEST(Tensor, At2d) {
  t::Tensor a = t::arange(6).reshape(t::Shape{2, 3});
  EXPECT_EQ(a.at(1, 2), 5.0f);
  a.at(0, 1) = -1.0f;
  EXPECT_EQ(a[1], -1.0f);
}

TEST(Creation, RandnDeterministic) {
  auto a = t::randn(t::Shape{128}, 1234);
  auto b = t::randn(t::Shape{128}, 1234);
  auto c = t::randn(t::Shape{128}, 999);
  EXPECT_EQ(t::max_diff(a, b), 0.0f);
  EXPECT_GT(t::max_diff(a, c), 0.0f);
}

TEST(Creation, RandnMoments) {
  auto a = t::randn(t::Shape{20000}, 7, 2.0f, 0.5f);
  EXPECT_NEAR(t::mean(a), 2.0f, 0.02f);
  double var = 0.0;
  for (float v : a.data()) var += (v - 2.0) * (v - 2.0);
  var /= static_cast<double>(a.numel());
  EXPECT_NEAR(var, 0.25, 0.01);
}

TEST(Creation, UniformRange) {
  auto a = t::uniform(t::Shape{1000}, 3, -2.0f, 5.0f);
  for (float v : a.data()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Elementwise, AddSubMul) {
  auto a = t::arange(4);
  auto b = t::full(t::Shape{4}, 2.0f);
  EXPECT_EQ(t::add(a, b)[3], 5.0f);
  EXPECT_EQ(t::sub(a, b)[0], -2.0f);
  EXPECT_EQ(t::mul(a, b)[2], 4.0f);
  EXPECT_EQ(t::add_scalar(a, 10.0f)[1], 11.0f);
  EXPECT_EQ(t::mul_scalar(a, -1.0f)[3], -3.0f);
}

TEST(Elementwise, InPlace) {
  auto a = t::ones(t::Shape{3});
  auto b = t::arange(3);
  t::add_(a, b);
  EXPECT_EQ(a[2], 3.0f);
  t::axpy_(a, 2.0f, b);
  EXPECT_EQ(a[2], 7.0f);
  t::scale_(a, 0.5f);
  EXPECT_EQ(a[2], 3.5f);
}

TEST(Elementwise, AddBiasBroadcast) {
  auto a = t::zeros(t::Shape{2, 2, 3});
  auto bias = t::arange(3);
  auto y = t::add_bias(a, bias);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(y[r * 3 + 0], 0.0f);
    EXPECT_EQ(y[r * 3 + 1], 1.0f);
    EXPECT_EQ(y[r * 3 + 2], 2.0f);
  }
}

TEST(Matmul, Known2x2) {
  t::Tensor a(t::Shape{2, 2}, {1, 2, 3, 4});
  t::Tensor b(t::Shape{2, 2}, {5, 6, 7, 8});
  auto c = t::matmul(a, b);
  EXPECT_EQ(c[0], 19.0f);
  EXPECT_EQ(c[1], 22.0f);
  EXPECT_EQ(c[2], 43.0f);
  EXPECT_EQ(c[3], 50.0f);
}

TEST(Matmul, LeadingDimsCollapse) {
  auto a = t::randn(t::Shape{2, 3, 4}, 1);
  auto b = t::randn(t::Shape{4, 5}, 2);
  auto c = t::matmul(a, b);
  EXPECT_EQ(c.shape(), (t::Shape{2, 3, 5}));
  // equals flattening the leading dims
  auto c2 = t::matmul(a.reshape(t::Shape{6, 4}), b);
  EXPECT_EQ(t::max_diff(c.reshape(t::Shape{6, 5}), c2), 0.0f);
}

TEST(Matmul, TransposedVariantsAgree) {
  auto a = t::randn(t::Shape{3, 4}, 10);
  auto b = t::randn(t::Shape{4, 5}, 11);
  auto ref = t::matmul(a, b);
  // matmul_tn(a^T, b) == a b
  auto viaTN = t::matmul_tn(t::transpose2d(a), b);
  EXPECT_LT(t::max_diff(ref, viaTN), 1e-5f);
  // matmul_nt(a, b^T) == a b
  auto viaNT = t::matmul_nt(a, t::transpose2d(b));
  EXPECT_LT(t::max_diff(ref, viaNT), 1e-5f);
}

TEST(Matmul, BmmAgainstLoop) {
  auto a = t::randn(t::Shape{3, 2, 4}, 20);
  auto b = t::randn(t::Shape{3, 4, 5}, 21);
  auto c = t::bmm(a, b);
  for (int i = 0; i < 3; ++i) {
    auto ai = t::chunk(a, 0, 3, i).reshape(t::Shape{2, 4});
    auto bi = t::chunk(b, 0, 3, i).reshape(t::Shape{4, 5});
    auto ci = t::chunk(c, 0, 3, i).reshape(t::Shape{2, 5});
    EXPECT_LT(t::max_diff(ci, t::matmul(ai, bi)), 1e-5f);
  }
}

TEST(Matmul, BmmTransposedVariants) {
  auto a = t::randn(t::Shape{2, 3, 4}, 30);
  auto b = t::randn(t::Shape{2, 4, 5}, 31);
  auto ref = t::bmm(a, b);

  // bmm_nt(a, b^T-batched)
  t::Tensor bt(t::Shape{2, 5, 4});
  for (int bt_i = 0; bt_i < 2; ++bt_i) {
    auto bi = t::chunk(b, 0, 2, bt_i).reshape(t::Shape{4, 5});
    auto bit = t::transpose2d(bi);
    std::copy(bit.data().begin(), bit.data().end(),
              bt.data().begin() + bt_i * 20);
  }
  EXPECT_LT(t::max_diff(ref, t::bmm_nt(a, bt)), 1e-5f);

  // bmm_tn(a^T-batched, b)
  t::Tensor at(t::Shape{2, 4, 3});
  for (int i = 0; i < 2; ++i) {
    auto ai = t::chunk(a, 0, 2, i).reshape(t::Shape{3, 4});
    auto ait = t::transpose2d(ai);
    std::copy(ait.data().begin(), ait.data().end(),
              at.data().begin() + i * 12);
  }
  EXPECT_LT(t::max_diff(ref, t::bmm_tn(at, b)), 1e-5f);
}

TEST(Reduction, SumMeanMaxAbs) {
  t::Tensor a(t::Shape{4}, {1, -2, 3, -4});
  EXPECT_EQ(t::sum(a), -2.0f);
  EXPECT_EQ(t::mean(a), -0.5f);
  EXPECT_EQ(t::max_abs(a), 4.0f);
}

TEST(Reduction, SumToLastdim) {
  auto a = t::ones(t::Shape{2, 3, 4});
  auto s = t::sum_to_lastdim(a);
  EXPECT_EQ(s.shape(), (t::Shape{4}));
  EXPECT_EQ(s[0], 6.0f);
}

TEST(Reduction, ArgmaxRows) {
  t::Tensor a(t::Shape{2, 3}, {0, 5, 1, 9, 2, 3});
  auto idx = t::argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Softmax, RowsSumToOne) {
  auto a = t::randn(t::Shape{7, 13}, 42);
  auto y = t::softmax_lastdim(a);
  for (int r = 0; r < 7; ++r) {
    float s = 0.0f;
    for (int c = 0; c < 13; ++c) s += y[r * 13 + c];
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Softmax, StableForLargeLogits) {
  t::Tensor a(t::Shape{1, 3}, {1000.0f, 1000.0f, 999.0f});
  auto y = t::softmax_lastdim(a);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_GT(y[0], y[2]);
}

namespace {

/// Central-difference gradient check for a scalar-valued loss built from a
/// unary op: loss = sum(op(x) * w) with fixed random w.
template <class Fwd, class Bwd>
void check_unary_grad(Fwd fwd, Bwd bwd, float tol = 2e-2f) {
  auto x = t::randn(t::Shape{32}, 5, 0.0f, 1.0f);
  auto w = t::randn(t::Shape{32}, 6, 0.0f, 1.0f);
  auto dy = w;  // dL/dy for L = sum(y * w)
  auto analytic = bwd(x, dy);
  const float eps = 1e-3f;
  for (int i = 0; i < 32; i += 5) {
    auto xp = x.clone();
    auto xm = x.clone();
    xp[i] += eps;
    xm[i] -= eps;
    const float lp = t::sum(t::mul(fwd(xp), w));
    const float lm = t::sum(t::mul(fwd(xm), w));
    const float numeric = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric, tol) << "at index " << i;
  }
}

}  // namespace

TEST(Grad, GeluMatchesFiniteDifference) {
  check_unary_grad([](const t::Tensor& x) { return t::gelu(x); },
                   [](const t::Tensor& x, const t::Tensor& dy) {
                     return t::gelu_backward(x, dy);
                   });
}

TEST(Grad, ReluMatchesFiniteDifference) {
  check_unary_grad([](const t::Tensor& x) { return t::relu(x); },
                   [](const t::Tensor& x, const t::Tensor& dy) {
                     return t::relu_backward(x, dy);
                   });
}

TEST(Grad, SoftmaxMatchesFiniteDifference) {
  auto x = t::randn(t::Shape{4, 8}, 15);
  auto w = t::randn(t::Shape{4, 8}, 16);
  auto y = t::softmax_lastdim(x);
  auto dx = t::softmax_backward(y, w);
  const float eps = 1e-3f;
  for (int i = 0; i < 32; i += 7) {
    auto xp = x.clone();
    auto xm = x.clone();
    xp[i] += eps;
    xm[i] -= eps;
    const float lp = t::sum(t::mul(t::softmax_lastdim(xp), w));
    const float lm = t::sum(t::mul(t::softmax_lastdim(xm), w));
    EXPECT_NEAR(dx[i], (lp - lm) / (2.0f * eps), 1e-2f);
  }
}

// ---- vectorized GELU / softmax contract ----------------------------------

namespace {

/// tanh-form GELU and its derivative in double precision.
double gelu_ref(double v) {
  const double u = std::sqrt(2.0 / M_PI) * (v + 0.044715 * v * v * v);
  return 0.5 * v * (1.0 + std::tanh(u));
}

double gelu_grad_ref(double v) {
  const double c = std::sqrt(2.0 / M_PI);
  const double th = std::tanh(c * (v + 0.044715 * v * v * v));
  return 0.5 * (1.0 + th) +
         0.5 * v * (1.0 - th * th) * c * (1.0 + 3.0 * 0.044715 * v * v);
}

/// GELU forward and backward (dy = 1) of the given inputs.
std::pair<t::Tensor, t::Tensor> gelu_both(const std::vector<float>& xs) {
  const auto n = static_cast<std::int64_t>(xs.size());
  t::Tensor x(t::Shape{n}, xs);
  return {t::gelu(x), t::gelu_backward(x, t::ones(t::Shape{n}))};
}

/// Row-wise softmax(scale * x) in double precision.
std::vector<double> softmax_ref(const t::Tensor& x, float scale) {
  const std::int64_t n = x.dim(-1);
  std::vector<double> y(static_cast<std::size_t>(x.numel()));
  for (std::int64_t r = 0; r < x.numel() / n; ++r) {
    double* yr = y.data() + r * n;
    double mx = -INFINITY;
    for (std::int64_t i = 0; i < n; ++i)
      mx = std::max(mx, static_cast<double>(x[r * n + i]) * scale);
    double sum = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      yr[i] = std::exp(static_cast<double>(x[r * n + i]) * scale - mx);
      sum += yr[i];
    }
    for (std::int64_t i = 0; i < n; ++i) yr[i] /= sum;
  }
  return y;
}

}  // namespace

TEST(Elementwise, GeluMatchesDoublePrecisionReference) {
  // The sigmoid form has no 1 + tanh(u) cancellation, so the relative error
  // stays small deep into the negative tail.
  std::vector<float> xs;
  for (int i = 0; i <= 400000; ++i) {
    xs.push_back(-20.0f + 1e-4f * static_cast<float>(i));
  }
  const auto [y, g] = gelu_both(xs);
  double worst_rel = 0.0, worst_abs = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto k = static_cast<std::int64_t>(i);
    const double ref = gelu_ref(xs[i]);
    if (std::abs(ref) >= 1e-6) {
      worst_rel = std::max(worst_rel, std::abs(y[k] - ref) / std::abs(ref));
    }
    worst_abs = std::max(worst_abs, std::abs(g[k] - gelu_grad_ref(xs[i])));
  }
  EXPECT_LE(worst_rel, 1e-5);
  EXPECT_LE(worst_abs, 1e-5);
}

TEST(Elementwise, GeluNegativeTailIsExactZero) {
  // Dead units emit exact zeros in both directions, so nothing tiny reaches
  // the optimizer's squared-gradient state.
  std::vector<float> xs;
  for (float v = -6.0f; v > -1e6f; v *= 1.01f) xs.push_back(v);
  xs.push_back(-1e30f);
  xs.push_back(-std::numeric_limits<float>::max());
  const auto [y, g] = gelu_both(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto k = static_cast<std::int64_t>(i);
    EXPECT_EQ(y[k], 0.0f) << "v = " << xs[i];
    EXPECT_EQ(g[k], 0.0f) << "v = " << xs[i];
  }
}

TEST(Elementwise, GeluNeverSubnormal) {
  std::vector<float> xs;
  for (float m = 1e-30f; m < 1e30f; m *= 1.05f) {
    xs.push_back(m);
    xs.push_back(-m);
  }
  const auto [y, g] = gelu_both(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto k = static_cast<std::int64_t>(i);
    EXPECT_NE(std::fpclassify(y[k]), FP_SUBNORMAL) << "v = " << xs[i];
    EXPECT_NE(std::fpclassify(g[k]), FP_SUBNORMAL) << "v = " << xs[i];
  }
}

TEST(Elementwise, GeluNonFiniteInputs) {
  // NaN must survive both directions: the NaN-consensus guard relies on it.
  // 70 inputs put non-finite values in full vector iterations and the tail.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs(70, 0.5f);
  for (std::size_t i = 0; i + 2 < xs.size(); i += 11) {
    xs[i] = NAN;
    xs[i + 1] = inf;
    xs[i + 2] = -inf;
  }
  const auto [y, g] = gelu_both(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto k = static_cast<std::int64_t>(i);
    if (std::isnan(xs[i])) {
      EXPECT_TRUE(std::isnan(y[k])) << "i = " << i;
      EXPECT_TRUE(std::isnan(g[k])) << "i = " << i;
    } else if (std::isinf(xs[i])) {
      EXPECT_FALSE(std::isfinite(y[k])) << "i = " << i;
    } else {
      EXPECT_FLOAT_EQ(y[k], static_cast<float>(gelu_ref(0.5))) << "i = " << i;
    }
  }
}

TEST(Softmax, MatchesDoublePrecisionReference) {
  struct Case {
    t::Shape shape;
    float scale;
  };
  // The attention shape (heads x tokens x tokens, scale 1/sqrt(d)) and wide
  // rows that take many full vector iterations.
  const std::vector<Case> cases{{t::Shape{16, 32, 32}, 0.17677669f},
                                {t::Shape{4, 1024}, 1.0f},
                                {t::Shape{3, 1023}, 3.0f}};
  for (const auto& c : cases) {
    const auto x = t::randn(c.shape, 77, 0.0f, 2.0f);
    const auto y = t::softmax_lastdim_scaled(x, c.scale);
    const auto ref = softmax_ref(x, c.scale);
    const std::int64_t n = x.dim(-1);
    for (std::int64_t r = 0; r < x.numel() / n; ++r) {
      double sum = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t k = r * n + i;
        sum += y[k];
        EXPECT_NEAR(y[k], ref[static_cast<std::size_t>(k)], 1e-6)
            << "row " << r;
      }
      EXPECT_NEAR(sum, 1.0, 1e-6) << "row " << r << " of width " << n;
    }
  }
}

TEST(Softmax, LargeLogitRowStaysFinite) {
  const auto y = t::softmax_lastdim(t::full(t::Shape{2, 64}, 1000.0f));
  for (std::int64_t k = 0; k < y.numel(); ++k) {
    ASSERT_TRUE(std::isfinite(y[k]));
    EXPECT_FLOAT_EQ(y[k], 1.0f / 64.0f);
  }
}

TEST(Softmax, OutputsNeverSubnormal) {
  // A 1024-wide row spanning 200 nats: the far tail underflows, and must do
  // so to exact zero rather than through the subnormal range.
  t::Tensor x(t::Shape{1, 1024});
  for (std::int64_t i = 0; i < 1024; ++i) {
    x[i] = -200.0f * static_cast<float>(i) / 1023.0f;
  }
  const auto y = t::softmax_lastdim(x);
  int zeros = 0;
  for (std::int64_t i = 0; i < 1024; ++i) {
    EXPECT_NE(std::fpclassify(y[i]), FP_SUBNORMAL) << "i = " << i;
    zeros += y[i] == 0.0f ? 1 : 0;
  }
  EXPECT_GT(zeros, 0);
  EXPECT_GT(y[0], 0.0f);
}

TEST(LayerNorm, NormalizesRows) {
  auto x = t::randn(t::Shape{5, 64}, 77, 3.0f, 2.0f);
  auto gamma = t::ones(t::Shape{64});
  auto beta = t::zeros(t::Shape{64});
  t::Tensor mu, rstd;
  auto y = t::layernorm_forward(x, gamma, beta, 1e-5f, mu, rstd);
  for (int r = 0; r < 5; ++r) {
    float m = 0.0f, v = 0.0f;
    for (int c = 0; c < 64; ++c) m += y[r * 64 + c];
    m /= 64.0f;
    for (int c = 0; c < 64; ++c) v += (y[r * 64 + c] - m) * (y[r * 64 + c] - m);
    v /= 64.0f;
    EXPECT_NEAR(m, 0.0f, 1e-4f);
    EXPECT_NEAR(v, 1.0f, 1e-2f);
  }
}

TEST(LayerNorm, BackwardMatchesFiniteDifference) {
  const int rows = 3, h = 16;
  auto x = t::randn(t::Shape{rows, h}, 8);
  auto gamma = t::uniform(t::Shape{h}, 9, 0.5f, 1.5f);
  auto beta = t::randn(t::Shape{h}, 10);
  auto w = t::randn(t::Shape{rows, h}, 11);

  t::Tensor mu, rstd;
  auto y = t::layernorm_forward(x, gamma, beta, 1e-5f, mu, rstd);
  auto dgamma = t::zeros(t::Shape{h});
  auto dbeta = t::zeros(t::Shape{h});
  auto dx = t::layernorm_backward(x, w, gamma, mu, rstd, dgamma, dbeta);

  const float eps = 1e-2f;
  auto loss = [&](const t::Tensor& xx) {
    t::Tensor m2, r2;
    return t::sum(t::mul(t::layernorm_forward(xx, gamma, beta, 1e-5f, m2, r2), w));
  };
  for (int i = 0; i < rows * h; i += 11) {
    auto xp = x.clone();
    auto xm = x.clone();
    xp[i] += eps;
    xm[i] -= eps;
    EXPECT_NEAR(dx[i], (loss(xp) - loss(xm)) / (2.0f * eps), 5e-2f);
  }
  // dbeta is just the sum of dy over rows
  auto expected_dbeta = t::sum_to_lastdim(w);
  EXPECT_LT(t::max_diff(dbeta, expected_dbeta), 1e-4f);
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  const int n = 4, c = 8;
  auto logits = t::zeros(t::Shape{n, c});
  std::vector<std::int64_t> labels{0, 1, 2, 3};
  t::Tensor dl;
  const float loss = t::cross_entropy(logits, labels, dl);
  EXPECT_NEAR(loss, std::log(static_cast<float>(c)), 1e-5f);
  // gradient sums to zero per row
  for (int r = 0; r < n; ++r) {
    float s = 0.0f;
    for (int j = 0; j < c; ++j) s += dl[r * c + j];
    EXPECT_NEAR(s, 0.0f, 1e-6f);
  }
}

TEST(CrossEntropy, GradMatchesFiniteDifference) {
  const int n = 3, c = 5;
  auto logits = t::randn(t::Shape{n, c}, 33);
  std::vector<std::int64_t> labels{4, 0, 2};
  t::Tensor dl;
  t::cross_entropy(logits, labels, dl);
  const float eps = 1e-3f;
  for (int i = 0; i < n * c; ++i) {
    auto lp = logits.clone();
    auto lm = logits.clone();
    lp[i] += eps;
    lm[i] -= eps;
    t::Tensor tmp;
    const float fp = t::cross_entropy(lp, labels, tmp);
    const float fm = t::cross_entropy(lm, labels, tmp);
    EXPECT_NEAR(dl[i], (fp - fm) / (2.0f * eps), 1e-3f);
  }
}

TEST(ShapeOps, NarrowMiddleDim) {
  auto a = t::arange(24).reshape(t::Shape{2, 3, 4});
  auto b = t::narrow(a, 1, 1, 2);
  EXPECT_EQ(b.shape(), (t::Shape{2, 2, 4}));
  EXPECT_EQ(b[0], 4.0f);   // a[0,1,0]
  EXPECT_EQ(b[8], 16.0f);  // a[1,1,0]
}

TEST(ShapeOps, ChunkAndCatRoundTrip) {
  auto a = t::randn(t::Shape{4, 6}, 50);
  for (std::int64_t dim = 0; dim < 2; ++dim) {
    std::vector<t::Tensor> parts;
    for (int i = 0; i < 2; ++i) parts.push_back(t::chunk(a, dim, 2, i));
    auto back = t::cat(parts, dim);
    EXPECT_EQ(t::max_diff(a, back), 0.0f) << "dim=" << dim;
  }
}

TEST(ShapeOps, CatUnevenParts) {
  auto a = t::narrow(t::arange(10).reshape(t::Shape{10, 1}), 0, 0, 3);
  auto b = t::narrow(t::arange(10).reshape(t::Shape{10, 1}), 0, 3, 7);
  auto c = t::cat(std::vector<t::Tensor>{a, b}, 0);
  EXPECT_EQ(c.shape(), (t::Shape{10, 1}));
  EXPECT_EQ(c[9], 9.0f);
}

TEST(Compare, Allclose) {
  auto a = t::ones(t::Shape{4});
  auto b = t::add_scalar(a, 1e-7f);
  EXPECT_TRUE(t::allclose(a, b));
  auto c = t::add_scalar(a, 1e-2f);
  EXPECT_FALSE(t::allclose(a, c));
  EXPECT_FALSE(t::allclose(a, t::ones(t::Shape{2, 2})));  // shape mismatch
}

// ---- fp16 -------------------------------------------------------------------

TEST(Half, ExactSmallValues) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f, 1024.0f}) {
    EXPECT_EQ(t::fp16_round_trip(v), v);
  }
}

TEST(Half, RoundsToNearest) {
  // 1 + 2^-11 is exactly between fp16 neighbours 1.0 and 1+2^-10; ties to even.
  const float v = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(t::fp16_round_trip(v), 1.0f);
  const float w = 1.0f + 3.0f * std::ldexp(1.0f, -11);
  EXPECT_EQ(t::fp16_round_trip(w), 1.0f + std::ldexp(1.0f, -9));
}

TEST(Half, OverflowToInf) {
  EXPECT_TRUE(std::isinf(t::fp16_round_trip(70000.0f)));
  EXPECT_TRUE(std::isinf(t::fp16_round_trip(-70000.0f)));
  EXPECT_LT(t::fp16_round_trip(-70000.0f), 0.0f);
}

TEST(Half, SubnormalsRepresentable) {
  const float tiny = std::ldexp(1.0f, -24);  // smallest fp16 subnormal
  EXPECT_EQ(t::fp16_round_trip(tiny), tiny);
  const float denorm = 3.0f * std::ldexp(1.0f, -24);
  EXPECT_EQ(t::fp16_round_trip(denorm), denorm);
}

TEST(Half, UnderflowToZero) {
  EXPECT_EQ(t::fp16_round_trip(std::ldexp(1.0f, -30)), 0.0f);
}

TEST(Half, NanPropagates) {
  EXPECT_TRUE(std::isnan(t::fp16_round_trip(std::nanf(""))));
}

TEST(Half, RelativeErrorBounded) {
  // normal range: relative error <= 2^-11
  auto xs = t::uniform(t::Shape{1000}, 60, -1000.0f, 1000.0f);
  for (float v : xs.data()) {
    if (std::fabs(v) < 1e-3f) continue;
    const float r = t::fp16_round_trip(v);
    EXPECT_LE(std::fabs(r - v) / std::fabs(v), 1.0f / 2048.0f + 1e-7f);
  }
}
