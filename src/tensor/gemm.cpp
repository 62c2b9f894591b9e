#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace ca::tensor::detail {

namespace {

// Register tile: MR rows of C by NR columns, held in vector registers across
// the full KC depth before touching C. It is picked at compile time to fill
// the ISA's register file with enough independent FMA chains to hide their
// latency: 8 x 32 is 16 zmm accumulators on AVX-512, 6 x 16 is 12 ymm on
// AVX/AVX2, and 6 x 8 is 12 xmm on plain SSE.
#if defined(__AVX512F__)
constexpr std::int64_t kLanes = 16;
constexpr std::int64_t kMr = 8;
constexpr std::int64_t kNr = 32;
#elif defined(__AVX__)
constexpr std::int64_t kLanes = 8;
constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = 16;
#else
constexpr std::int64_t kLanes = 4;
constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = 8;
#endif
// Cache blocks: an MC x KC packed A block (L2-resident) is multiplied by a
// KC x NC packed B panel (streamed NR columns at a time).
constexpr std::int64_t kMc = 16 * kMr;
constexpr std::int64_t kNc = 1024;
constexpr std::int64_t kNv = kNr / kLanes;

static_assert(kNr % kLanes == 0 && kNc % kNr == 0);

// Generic vector type: the compiler lowers `acc += a * b` on it exactly as it
// lowers the scalar naive loops (same contraction into FMA or not), which is
// what keeps the two bit-identical.
typedef float Vec __attribute__((vector_size(kLanes * sizeof(float))));

std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return (v + to - 1) / to * to;
}

/// Pack an mc x kc block of A into MR-row strips: strip s holds
/// dst[s][p * MR + r] = A(s*MR + r, p), rows past mc padded with zeros so the
/// microkernel never branches on the row edge.
void pack_a(const float* a, std::int64_t a_rs, std::int64_t a_cs,
            std::int64_t mc, std::int64_t kc, float* dst) {
  for (std::int64_t i0 = 0; i0 < mc; i0 += kMr) {
    const std::int64_t mr = std::min(kMr, mc - i0);
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* col = a + i0 * a_rs + p * a_cs;
      for (std::int64_t r = 0; r < mr; ++r) dst[r] = col[r * a_rs];
      for (std::int64_t r = mr; r < kMr; ++r) dst[r] = 0.0f;
      dst += kMr;
    }
  }
}

Vec load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

#if defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector)
#define CA_GEMM_SHUFFLE 1
#endif
#endif

#ifdef CA_GEMM_SHUFFLE
/// Lane i of the result is lane i/2 + Off of `a` for even i, of `b` for odd.
template <std::int64_t Off, std::size_t... I>
Vec zip(Vec a, Vec b, std::index_sequence<I...>) {
  return __builtin_shufflevector(a, b, (I / 2 + Off + (I % 2) * kLanes)...);
}

/// In-register transpose of a kLanes x kLanes block: log2(kLanes) rounds,
/// each interleaving row i with row i + kLanes/2.
void transpose(Vec (&x)[kLanes]) {
  constexpr auto lanes = std::make_index_sequence<kLanes>();
  for (std::int64_t round = 1; round < kLanes; round *= 2) {
    Vec y[kLanes];
    for (std::int64_t i = 0; i < kLanes / 2; ++i) {
      y[2 * i] = zip<0>(x[i], x[i + kLanes / 2], lanes);
      y[2 * i + 1] = zip<kLanes / 2>(x[i], x[i + kLanes / 2], lanes);
    }
    for (std::int64_t i = 0; i < kLanes; ++i) x[i] = y[i];
  }
}
#endif

/// Pack a kc x nc block of B into NR-column strips: strip s holds
/// dst[s][p * NR + c] = B(p, s*NR + c), columns past nc padded with zeros.
/// A transposed B (b_rs == 1) is packed in kLanes x kLanes blocks, loaded
/// along its contiguous p and transposed in registers. Walking it row by
/// row instead fetches NR lines k floats apart (often one L1 set) per p.
void pack_b(const float* b, std::int64_t b_rs, std::int64_t b_cs,
            std::int64_t kc, std::int64_t nc, float* dst) {
  for (std::int64_t j0 = 0; j0 < nc; j0 += kNr) {
    const std::int64_t nr = std::min(kNr, nc - j0);
    if (b_rs != 1) {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* row = b + p * b_rs + j0 * b_cs;
        for (std::int64_t c = 0; c < nr; ++c) dst[c] = row[c * b_cs];
        for (std::int64_t c = nr; c < kNr; ++c) dst[c] = 0.0f;
        dst += kNr;
      }
      continue;
    }
    for (std::int64_t c0 = 0; c0 < kNr; c0 += kLanes) {
      for (std::int64_t p0 = 0; p0 < kc; p0 += kLanes) {
        float* out = dst + p0 * kNr + c0;
#ifdef CA_GEMM_SHUFFLE
        if (c0 + kLanes <= nr && p0 + kLanes <= kc) {
          const float* col = b + p0 + (j0 + c0) * b_cs;
          Vec x[kLanes];
          for (std::int64_t c = 0; c < kLanes; ++c) x[c] = load(col + c * b_cs);
          transpose(x);
          for (std::int64_t p = 0; p < kLanes; ++p) store(out + p * kNr, x[p]);
          continue;
        }
#endif
        const std::int64_t pn = std::min(kLanes, kc - p0);
        for (std::int64_t c = c0; c < c0 + kLanes; ++c) {
          const float* col = c < nr ? b + p0 + (j0 + c) * b_cs : nullptr;
          for (std::int64_t p = 0; p < pn; ++p)
            out[p * kNr + c - c0] = col ? col[p] : 0.0f;
        }
      }
    }
    dst += kc * kNr;
  }
}

/// C tile (mr x nr, row stride ldc) += apanel(kc x MR) x bpanel(kc x NR), both
/// packed. The products accumulate from +0 in registers; C is added once.
void micro_kernel(std::int64_t kc, const float* apanel, const float* bpanel,
                  float* c, std::int64_t ldc, std::int64_t mr,
                  std::int64_t nr) {
  Vec acc[kMr][kNv] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    Vec bv[kNv];
    for (std::int64_t v = 0; v < kNv; ++v)
      bv[v] = load(bpanel + p * kNr + v * kLanes);
    const float* ap = apanel + p * kMr;
    for (std::int64_t r = 0; r < kMr; ++r)
      for (std::int64_t v = 0; v < kNv; ++v) acc[r][v] += ap[r] * bv[v];
  }
  if (mr == kMr && nr == kNr) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      for (std::int64_t v = 0; v < kNv; ++v) {
        float* cp = c + r * ldc + v * kLanes;
        store(cp, load(cp) + acc[r][v]);
      }
    }
    return;
  }
  // Edge tile: spill through a buffer (copied by value so acc itself never
  // has its address taken and stays in registers) and add the live part.
  float tile[kMr][kNr];
  for (std::int64_t r = 0; r < kMr; ++r)
    for (std::int64_t v = 0; v < kNv; ++v)
      store(&tile[r][v * kLanes], acc[r][v]);
  for (std::int64_t r = 0; r < mr; ++r)
    for (std::int64_t j = 0; j < nr; ++j) c[r * ldc + j] += tile[r][j];
}

/// Grow-only per-thread packing buffers, reused across calls so the
/// steady-state GEMM path performs no allocation beyond its output. No fiber
/// yields inside a GEMM, so a thread never has two GEMMs in flight.
std::vector<float>& apack_buffer() {
  static thread_local std::vector<float> buf;
  return buf;
}

std::vector<float>& bpack_buffer() {
  static thread_local std::vector<float> buf;
  return buf;
}

void grow(std::vector<float>& buf, std::int64_t size) {
  if (buf.size() < static_cast<std::size_t>(size))
    buf.resize(static_cast<std::size_t>(size));
}

}  // namespace

void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, std::int64_t a_rs, std::int64_t a_cs,
                  const float* b, std::int64_t b_rs, std::int64_t b_cs,
                  float* c, bool threaded) {
  if (m <= 0 || n <= 0 || k <= 0) return;

  auto& bpack = bpack_buffer();
  grow(bpack, round_up(std::min(n, kNc), kNr) * std::min(k, kKc));

  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nc = std::min(kNc, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
      const std::int64_t kc = std::min(kKc, k - pc);
      pack_b(b + pc * b_rs + jc * b_cs, b_rs, b_cs, kc, nc, bpack.data());

#pragma omp parallel for schedule(static) \
    if (parallel : threaded && m > kMc && m * nc * kc >= kOmpMinElems)
      for (std::int64_t ic = 0; ic < m; ic += kMc) {
        const std::int64_t mc = std::min(kMc, m - ic);
        auto& apack = apack_buffer();
        grow(apack, round_up(mc, kMr) * kc);
        pack_a(a + ic * a_rs + pc * a_cs, a_rs, a_cs, mc, kc, apack.data());

        for (std::int64_t j0 = 0; j0 < nc; j0 += kNr) {
          const std::int64_t nr = std::min(kNr, nc - j0);
          const float* bpanel = bpack.data() + (j0 / kNr) * kc * kNr;
          for (std::int64_t i0 = 0; i0 < mc; i0 += kMr) {
            micro_kernel(kc, apack.data() + (i0 / kMr) * kc * kMr, bpanel,
                         c + (ic + i0) * n + jc + j0, n,
                         std::min(kMr, mc - i0), nr);
          }
        }
      }
    }
  }
}

}  // namespace ca::tensor::detail
