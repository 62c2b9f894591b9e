#include "tp/comm_helpers.hpp"

#include <cassert>
#include <vector>

namespace ca::tp {

namespace t = ca::tensor;

namespace {
/// Permute between the row-major last-dim layout ([row r][member m][w]) and
/// the chunk-major layout the collectives use ([member m][row r][w]). The
/// all-gather stitch and the reduce-scatter reorder are the two directions
/// of this one permutation.
void relayout_lastdim(const float* src, float* dst, std::int64_t rows,
                      std::int64_t w, int p, bool to_chunk_major) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (int m = 0; m < p; ++m) {
      const std::int64_t row_major = r * w * p + m * w;
      const std::int64_t chunk_major = m * rows * w + r * w;
      const std::int64_t s = to_chunk_major ? row_major : chunk_major;
      const std::int64_t d = to_chunk_major ? chunk_major : row_major;
      std::copy(src + s, src + s + w, dst + d);
    }
  }
}
}  // namespace

t::Tensor all_gather_lastdim(collective::Group& g, int grank,
                             const t::Tensor& local, t::Dtype wire) {
  const int p = g.size();
  if (p == 1) return local.clone();
  const std::int64_t w = local.dim(-1);
  t::Tensor flat(t::Shape{static_cast<std::int64_t>(p) * local.numel()});
  g.all_gather(grank, local.data(), flat.data(), wire);
  // flat = [rank0 block | rank1 block | ...]; stitch columns per row.
  const std::int64_t rows = local.numel() / w;
  t::Tensor out(local.shape().with_dim(-1, w * p));
  relayout_lastdim(flat.data().data(), out.data().data(), rows, w, p,
                   /*to_chunk_major=*/false);
  return out;
}

t::Tensor all_gather_dim0(collective::Group& g, int grank,
                          const t::Tensor& local, t::Dtype wire) {
  const int p = g.size();
  if (p == 1) return local.clone();
  t::Tensor out(local.shape().with_dim(0, local.dim(0) * p));
  g.all_gather(grank, local.data(), out.data(), wire);
  return out;
}

t::Tensor my_chunk_lastdim(collective::Group& g, int grank,
                           const t::Tensor& full) {
  return t::chunk(full, -1, g.size(), g.index_of(grank));
}

t::Tensor reduce_scatter_lastdim(collective::Group& g, int grank,
                                 const t::Tensor& full, t::Dtype wire) {
  const int p = g.size();
  if (p == 1) return full.clone();
  assert(full.dim(-1) % p == 0);
  const std::int64_t w = full.dim(-1) / p;
  const std::int64_t rows = full.numel() / (w * p);
  // reorder to chunk-major: [chunk m][row r][w]
  t::Tensor reordered(t::Shape{full.numel()});
  relayout_lastdim(full.data().data(), reordered.data().data(), rows, w, p,
                   /*to_chunk_major=*/true);
  t::Tensor out(full.shape().with_dim(-1, w));
  g.reduce_scatter(grank, reordered.data(), out.data(), 1.0f, wire);
  return out;
}

t::Tensor reduce_scatter_dim0(collective::Group& g, int grank,
                              const t::Tensor& full, t::Dtype wire) {
  const int p = g.size();
  if (p == 1) return full.clone();
  assert(full.dim(0) % p == 0);
  t::Tensor out(full.shape().with_dim(0, full.dim(0) / p));
  g.reduce_scatter(grank, full.data(), out.data(), 1.0f, wire);
  return out;
}

void all_reduce(collective::Group& g, int grank, t::Tensor& t,
                tensor::Dtype wire) {
  g.all_reduce(grank, t.data(), 1.0f, wire);
}

void broadcast(collective::Group& g, int grank, t::Tensor& t, int root,
               tensor::Dtype wire) {
  g.broadcast(grank, t.data(), root, wire);
}

}  // namespace ca::tp
