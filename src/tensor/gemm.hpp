#pragma once

#include <cstdint>

/// Cache-blocked single-precision GEMM microkernel (see DESIGN.md,
/// "Kernel & collective design"). The public entry point accumulates
///
///     C[i, j] += sum_p A(i, p) * B(p, j)
///
/// where A and B are read through arbitrary (row, col) element strides, so
/// one kernel serves the NN / NT / TN matmul variants: a transposed operand
/// is just a stride swap, and the packing step linearizes it either way.
/// C must be a contiguous row-major m x n buffer (typically zero-filled by
/// the caller).
namespace ca::tensor::detail {

/// Blocked, packed, SIMD GEMM. `a_rs`/`a_cs` are the element strides of A
/// such that A(i, p) = A[i * a_rs + p * a_cs]; likewise B(p, j) =
/// B[p * b_rs + j * b_cs]. When `threaded` is true the row-block loop runs
/// under OpenMP; pass false from inside an already-parallel region (e.g. the
/// batched matmul batch loop) to keep the inner kernel serial.
void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, std::int64_t a_rs, std::int64_t a_cs,
                  const float* b, std::int64_t b_rs, std::int64_t b_cs,
                  float* c, bool threaded);

/// Depth of one packed k-block. Each element of C is one multiply-add chain
/// per KC-long slice of k, started from +0 and added into C slice by slice,
/// so this is the only blocking constant that sets the summation order. For
/// k <= KC into a zeroed C the result is bit-identical to the naive
/// rank-1-update loops (naive_matmul, naive_matmul_tn and the bmm loop), up
/// to the sign of a zero whose every product underflowed.
constexpr std::int64_t kKc = 256;

/// Problems smaller than this many multiply-adds with k > KC keep the naive
/// loops (there the two orders differ and packing would not pay); every
/// other shape runs on the blocked kernel.
constexpr std::int64_t kBlockedGemmCutoff = 1 << 18;

/// True when the NN/TN matmuls and bmm* route (m, n, k) to gemm_blocked.
constexpr bool use_blocked(std::int64_t m, std::int64_t n, std::int64_t k) {
  return k <= kKc || m * n * k >= kBlockedGemmCutoff;
}

}  // namespace ca::tensor::detail
