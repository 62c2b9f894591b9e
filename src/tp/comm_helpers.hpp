#pragma once

#include "collective/group.hpp"
#include "tensor/dtype.hpp"
#include "tensor/ops.hpp"

namespace ca::tp {

// Every helper takes a trailing wire dtype (default f32 = exact). The
// tensor-parallel layers pass ParallelContext::comm_dtype() so activation
// and activation-gradient exchanges ride the half wire when configured;
// values round through the wire format once per exchange while local math
// stays fp32.

/// All-gather `local` shards and concatenate along the LAST dimension
/// (rank-i's block becomes columns [i*w, (i+1)*w)). The raw collective
/// concatenates whole buffers, so a local re-stitch follows.
tensor::Tensor all_gather_lastdim(collective::Group& g, int grank,
                                  const tensor::Tensor& local,
                                  tensor::Dtype wire = tensor::Dtype::kF32);

/// All-gather `local` shards and concatenate along dimension 0.
tensor::Tensor all_gather_dim0(collective::Group& g, int grank,
                               const tensor::Tensor& local,
                               tensor::Dtype wire = tensor::Dtype::kF32);

/// Keep only this rank's chunk of `full` along the last dimension.
tensor::Tensor my_chunk_lastdim(collective::Group& g, int grank,
                                const tensor::Tensor& full);

/// Sum `full` (same shape on every member) across the group and return this
/// rank's chunk along the last dimension; implemented with reduce-scatter
/// after a chunk-major reorder.
tensor::Tensor reduce_scatter_lastdim(collective::Group& g, int grank,
                                      const tensor::Tensor& full,
                                      tensor::Dtype wire = tensor::Dtype::kF32);

/// Sum across the group, returning this rank's rows chunk (dimension 0).
tensor::Tensor reduce_scatter_dim0(collective::Group& g, int grank,
                                   const tensor::Tensor& full,
                                   tensor::Dtype wire = tensor::Dtype::kF32);

/// In-place all-reduce of a tensor.
void all_reduce(collective::Group& g, int grank, tensor::Tensor& t,
                tensor::Dtype wire = tensor::Dtype::kF32);

/// In-place broadcast from group index `root`.
void broadcast(collective::Group& g, int grank, tensor::Tensor& t, int root,
               tensor::Dtype wire = tensor::Dtype::kF32);

}  // namespace ca::tp
