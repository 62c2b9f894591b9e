// Validation of the cache-blocked SIMD GEMM (tensor/gemm.hpp) against the
// naive triple-loop references. The shapes are chosen adversarially for the
// tiling: primes, 1-extents, and dimensions just below/at/above the register
// tile of every ISA build (MR 6/8, NR 8/16/32), the MC, KC and NC blocks, so
// every edge-padding path in the packing code is exercised.

#include <gtest/gtest.h>

#include <cstring>

#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace t = ca::tensor;

namespace {

// Past KC the blocked kernel adds one partial sum per KC slice, so results
// differ from the naive reference by float rounding; up to KC they are the
// same multiply-add chain and must match bit for bit.
constexpr float kRtol = 1e-4f;
constexpr float kAtol = 1e-4f;

struct Mnk {
  std::int64_t m, n, k;
};

const Mnk kShapes[] = {
    {1, 1, 1},       {1, 7, 1},      {7, 1, 13},    {1, 1, 300},
    {17, 19, 23},    {6, 16, 256},   {5, 15, 255},  {7, 17, 257},
    {8, 32, 256},    {7, 31, 255},   {9, 33, 257},  {8, 31, 32},
    {9, 32, 33},     {127, 31, 129}, {128, 16, 1},  {97, 95, 96},
    {129, 1031, 257}, {64, 64, 64},  {251, 67, 509}, {16, 256, 1024},
};

t::Tensor rand_mat(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  return t::randn(t::Shape{r, c}, seed);
}

bool same_bits(const t::Tensor& a, const t::Tensor& b) {
  return std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

void expect_close(const t::Tensor& got, const t::Tensor& want, const Mnk& s,
                  const char* variant) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(t::allclose(got, want, kRtol, kAtol))
      << variant << " m=" << s.m << " n=" << s.n << " k=" << s.k
      << " max_diff=" << t::max_diff(got, want);
}

// Bit for bit up to KC, float-close past it.
void expect_match(const t::Tensor& got, const t::Tensor& want, const Mnk& s,
                  const char* variant) {
  if (s.k > t::detail::kKc) return expect_close(got, want, s, variant);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(same_bits(got, want))
      << variant << " m=" << s.m << " n=" << s.n << " k=" << s.k
      << " not bit-identical, max_diff=" << t::max_diff(got, want);
}

// Drive the blocked kernel directly, whatever the entry points' routing.
t::Tensor blocked_nn(const t::Tensor& a, const t::Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  t::Tensor out(t::Shape{m, n}, 0.0f);
  t::detail::gemm_blocked(m, n, k, a.data().data(), k, 1, b.data().data(), n, 1,
                          out.data().data(), true);
  return out;
}

t::Tensor blocked_tn(const t::Tensor& a, const t::Tensor& b) {
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  t::Tensor out(t::Shape{m, n}, 0.0f);
  t::detail::gemm_blocked(m, n, k, a.data().data(), 1, m, b.data().data(), n, 1,
                          out.data().data(), true);
  return out;
}

t::Tensor blocked_nt(const t::Tensor& a, const t::Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  t::Tensor out(t::Shape{m, n}, 0.0f);
  t::detail::gemm_blocked(m, n, k, a.data().data(), k, 1, b.data().data(), 1, k,
                          out.data().data(), true);
  return out;
}

}  // namespace

TEST(Gemm, BlockedMatchesNaiveNN) {
  for (const auto& s : kShapes) {
    auto a = rand_mat(s.m, s.k, 1000 + s.m);
    auto b = rand_mat(s.k, s.n, 2000 + s.n);
    expect_match(blocked_nn(a, b), t::naive_matmul(a, b), s, "NN");
  }
}

TEST(Gemm, BlockedMatchesNaiveTN) {
  for (const auto& s : kShapes) {
    auto a = rand_mat(s.k, s.m, 3000 + s.m);
    auto b = rand_mat(s.k, s.n, 4000 + s.n);
    expect_match(blocked_tn(a, b), t::naive_matmul_tn(a, b), s, "TN");
  }
}

TEST(Gemm, BlockedMatchesNaiveNT) {
  // naive_matmul_nt sums dot products, which the compiler vectorizes over
  // separately rounded products; the kernel's chain is the rank-1 update of
  // naive_matmul on b^T, so the bits are checked against that.
  for (const auto& s : kShapes) {
    auto a = rand_mat(s.m, s.k, 5000 + s.m);
    auto b = rand_mat(s.n, s.k, 6000 + s.n);
    const auto got = blocked_nt(a, b);
    expect_match(got, t::naive_matmul(a, t::transpose2d(b)), s, "NT");
    expect_close(got, t::naive_matmul_nt(a, b), s, "NT vs dot products");
  }
}

TEST(Gemm, PublicMatmulRoutesLargeShapesCorrectly) {
  // The public entry points on both sides of the cutoff and of KC. Small NT
  // shapes keep naive_matmul_nt (see matmul_nt), and so its bits.
  for (const Mnk& s : {Mnk{130, 70, 260}, Mnk{64, 48, 128}, Mnk{9, 33, 40},
                       Mnk{3, 5, 300}}) {
    auto a = rand_mat(s.m, s.k, 11);
    auto b = rand_mat(s.k, s.n, 12);
    auto bt = t::transpose2d(b);
    const auto want = t::naive_matmul(a, b);
    expect_match(t::matmul(a, b), want, s, "public NN");
    expect_match(t::matmul_tn(t::transpose2d(a), b), want, s, "public TN");
    const bool small = s.m * s.n * s.k < t::detail::kBlockedGemmCutoff;
    expect_match(t::matmul_nt(a, bt), small ? t::naive_matmul_nt(a, bt) : want,
                 s, "public NT");
  }
  // A 3-d lhs collapses its leading dims into rows.
  auto a3 = t::randn(t::Shape{3, 7, 40}, 13);
  auto b = rand_mat(40, 33, 14);
  auto got = t::matmul(a3, b);
  EXPECT_EQ(got.shape(), (t::Shape{3, 7, 33}));
  EXPECT_TRUE(same_bits(got, t::naive_matmul(a3, b)));
}

TEST(Gemm, AccumulatesIntoExistingC) {
  // The kernel contract is C += A*B; verify it does not clobber prior C.
  // With k <= KC that is one add of the naive chain onto C, bit for bit.
  auto a = rand_mat(9, 33, 21);
  auto b = rand_mat(33, 18, 22);
  t::Tensor c = t::full(t::Shape{9, 18}, 2.0f);
  t::detail::gemm_blocked(9, 18, 33, a.data().data(), 33, 1, b.data().data(),
                          18, 1, c.data().data(), false);
  EXPECT_TRUE(same_bits(c, t::add_scalar(t::naive_matmul(a, b), 2.0f)));
}

namespace {

// bmm{,_nt,_tn} against the 2-d naive rank-1-update references applied batch
// by batch (bmm_nt's on b^T, as in BlockedMatchesNaiveNT). Operands are laid
// out as each variant reads them.
void check_bmm(std::int64_t batch, const Mnk& s) {
  const std::int64_t m = s.m, n = s.n, k = s.k;
  auto slice = [batch](const t::Tensor& x, std::int64_t bt, std::int64_t r,
                       std::int64_t c) {
    return t::chunk(x, 0, batch, bt).reshape(t::Shape{r, c});
  };
  auto a = t::randn(t::Shape{batch, m, k}, 31);
  auto a_tn = t::randn(t::Shape{batch, k, m}, 32);
  auto b = t::randn(t::Shape{batch, k, n}, 33);
  auto b_nt = t::randn(t::Shape{batch, n, k}, 34);
  const auto nn = t::bmm(a, b);
  const auto nt = t::bmm_nt(a, b_nt);
  const auto tn = t::bmm_tn(a_tn, b);
  for (std::int64_t bt = 0; bt < batch; ++bt) {
    expect_match(slice(nn, bt, m, n),
                 t::naive_matmul(slice(a, bt, m, k), slice(b, bt, k, n)), s,
                 "bmm");
    expect_match(slice(nt, bt, m, n),
                 t::naive_matmul(slice(a, bt, m, k),
                                 t::transpose2d(slice(b_nt, bt, n, k))),
                 s, "bmm_nt");
    expect_match(slice(tn, bt, m, n),
                 t::naive_matmul_tn(slice(a_tn, bt, k, m), slice(b, bt, k, n)),
                 s, "bmm_tn");
  }
}

}  // namespace

TEST(Bmm, AttentionShapeBitIdenticalToNaive) { check_bmm(8, {32, 32, 32}); }

TEST(Bmm, OddShapeBitIdenticalToNaive) { check_bmm(3, {17, 33, 5}); }

TEST(Bmm, LargeShapesMatchNaive) {
  // Above the cutoff (bit for bit) and past KC (float rounding apart).
  check_bmm(3, {65, 129, 140});
  check_bmm(2, {9, 17, 300});
}
