#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

/// Free-function kernels over Tensor. Heavy loops (matmul, batched matmul,
/// activations) are OpenMP-parallel; everything allocates its result unless
/// the name ends in '_' (in-place, Core Guidelines style).
namespace ca::tensor {

// ---- creation ------------------------------------------------------------

Tensor zeros(Shape shape);
Tensor ones(Shape shape);
Tensor full(Shape shape, float v);
/// [0, 1, ..., n-1] as fp32.
Tensor arange(std::int64_t n);
/// Seeded normal; identical (shape, seed, mean, stddev) => identical tensor,
/// which the convergence experiments rely on to give every parallel mode the
/// same initialization.
Tensor randn(Shape shape, std::uint64_t seed, float mean = 0.0f,
             float stddev = 1.0f);
Tensor uniform(Shape shape, std::uint64_t seed, float lo, float hi);

// ---- elementwise ----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
/// a += b
void add_(Tensor& a, const Tensor& b);
/// a += alpha * x
void axpy_(Tensor& a, float alpha, const Tensor& x);
/// a *= s
void scale_(Tensor& a, float s);

/// y = a + bias, broadcasting bias over all leading dims; bias.numel() must
/// equal a's last dimension.
Tensor add_bias(const Tensor& a, const Tensor& bias);
void add_bias_(Tensor& a, const Tensor& bias);

// ---- matmul ---------------------------------------------------------------

/// (..., m, k) x (k, n) -> (..., m, n). Leading dims of `a` are collapsed.
/// Runs through the cache-blocked SIMD kernel in gemm.hpp (see use_blocked).
Tensor matmul(const Tensor& a, const Tensor& b);
/// a^T b for 2-d a:(k,m), b:(k,n) -> (m,n). For weight gradients `a` may have
/// leading dims collapsed into its rows.
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// a b^T : (..., m, k) x (n, k) -> (..., m, n).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Unblocked triple-loop references for the three variants above. These are
/// the oracle the blocked kernel is validated against (tests/test_gemm.cpp).
/// naive_matmul and naive_matmul_tn are bit-identical to it for k <= KC;
/// naive_matmul_nt sums dot products in a different rounding, so it is only
/// float-close. The entry points use them for small shapes with k > KC, and
/// matmul_nt for every small shape.
Tensor naive_matmul(const Tensor& a, const Tensor& b);
Tensor naive_matmul_tn(const Tensor& a, const Tensor& b);
Tensor naive_matmul_nt(const Tensor& a, const Tensor& b);

/// Batched: (B, m, k) x (B, k, n) -> (B, m, n).
Tensor bmm(const Tensor& a, const Tensor& b);
/// Batched: (B, m, k) x (B, n, k) -> (B, m, n)  (i.e. a @ b^T per batch).
Tensor bmm_nt(const Tensor& a, const Tensor& b);
/// Batched: (B, k, m) x (B, k, n) -> (B, m, n)  (i.e. a^T @ b per batch).
Tensor bmm_tn(const Tensor& a, const Tensor& b);

/// 2-d transpose.
Tensor transpose2d(const Tensor& a);

// ---- reductions -----------------------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);
float max_abs(const Tensor& a);
/// Collapse all leading dims: (..., n) -> (n,). Used for bias gradients.
Tensor sum_to_lastdim(const Tensor& a);
/// Per-row argmax for 2-d (n, c) -> n indices.
std::vector<std::int64_t> argmax_rows(const Tensor& a);

// ---- nn kernels -----------------------------------------------------------

/// Softmax over the last dimension (numerically stabilized).
Tensor softmax_lastdim(const Tensor& a);
/// Fused scale+softmax: softmax(a * scale) in vectorized sweeps per row
/// (max, exp, sum, normalize), so attention skips the separate scale_
/// pass over the scores. Outputs below FLT_MIN are exactly 0.
/// softmax_lastdim(a) == softmax_lastdim_scaled(a, 1).
Tensor softmax_lastdim_scaled(const Tensor& a, float scale);
/// Given y = softmax(x) and dL/dy, return dL/dx.
Tensor softmax_backward(const Tensor& y, const Tensor& dy);
/// Backward of softmax_lastdim_scaled: the input scale is folded into the
/// output sweep (dL/dx_pre_scale = softmax_backward(y, dy) * scale).
Tensor softmax_backward_scaled(const Tensor& y, const Tensor& dy, float scale);
/// Unfused serial references — the oracles the fused/parallel softmax
/// kernels are validated against (results differ by float rounding only).
Tensor naive_softmax_lastdim(const Tensor& a);
Tensor naive_softmax_backward(const Tensor& y, const Tensor& dy);

/// Tanh-approximation GELU, as used by BERT/GPT/ViT, evaluated as
/// v * sigmoid(2u). Units whose sigmoid(2u) < 2^-24 (v < -4.96) give exactly
/// 0 in both directions; NaN propagates.
Tensor gelu(const Tensor& x);
Tensor gelu_backward(const Tensor& x, const Tensor& dy);

Tensor relu(const Tensor& x);
Tensor relu_backward(const Tensor& x, const Tensor& dy);

/// LayerNorm over the last dimension.
/// Outputs y and writes per-row mean / reciprocal std into `mean`/`rstd`
/// (each of shape (rows,)) for the backward pass.
Tensor layernorm_forward(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, float eps, Tensor& mean,
                         Tensor& rstd);
/// Returns dx; accumulates parameter grads into dgamma / dbeta.
Tensor layernorm_backward(const Tensor& x, const Tensor& dy,
                          const Tensor& gamma, const Tensor& mean,
                          const Tensor& rstd, Tensor& dgamma, Tensor& dbeta);

/// Unfused serial references for the fused/parallel LayerNorm kernels
/// (two-pass mean/variance forward, serial row-loop backward).
Tensor naive_layernorm_forward(const Tensor& x, const Tensor& gamma,
                               const Tensor& beta, float eps, Tensor& mean,
                               Tensor& rstd);
Tensor naive_layernorm_backward(const Tensor& x, const Tensor& dy,
                                const Tensor& gamma, const Tensor& mean,
                                const Tensor& rstd, Tensor& dgamma,
                                Tensor& dbeta);

/// Mean cross entropy of row-wise logits (n, c) against integer labels;
/// writes dL/dlogits (already divided by n) into `dlogits`.
float cross_entropy(const Tensor& logits, std::span<const std::int64_t> labels,
                    Tensor& dlogits);

// ---- shape ops ------------------------------------------------------------

/// Slice `len` indices starting at `start` along `dim` (copies).
Tensor narrow(const Tensor& a, std::int64_t dim, std::int64_t start,
              std::int64_t len);
/// Equal chunk `idx` of `nchunks` along `dim`; extent must divide evenly.
Tensor chunk(const Tensor& a, std::int64_t dim, std::int64_t nchunks,
             std::int64_t idx);
/// Concatenate along `dim`; all other extents must match.
Tensor cat(std::span<const Tensor> parts, std::int64_t dim);

// ---- comparison -----------------------------------------------------------

float max_diff(const Tensor& a, const Tensor& b);
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace ca::tensor
