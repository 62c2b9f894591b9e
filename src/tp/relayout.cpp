#include "tp/relayout.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace ca::tp {

namespace {

void check(const nn::ShardSpec& sp) {
  const std::int64_t S = sp.col_sections;
  if (sp.full_rows <= 0 || S <= 0 || sp.row_blocks <= 0 || sp.col_blocks <= 0) {
    throw std::invalid_argument("relayout: malformed shard spec");
  }
  if (sp.full_cols == 0) {
    // 1-D: sections and row blocks both partition the only dimension.
    if (sp.full_rows % (S * sp.row_blocks) != 0 || sp.col_blocks != 1) {
      throw std::invalid_argument("relayout: 1-D spec does not divide");
    }
  } else {
    if (sp.full_rows % sp.row_blocks != 0 ||
        sp.full_cols % (S * sp.col_blocks) != 0) {
      throw std::invalid_argument("relayout: 2-D spec does not divide");
    }
  }
}

/// Visit every contiguous run the local tensor occupies inside the full
/// one: fn(local_offset, full_offset, run_length).
template <class Fn>
void for_each_run(const nn::ShardSpec& sp, Fn fn) {
  check(sp);
  const std::int64_t S = sp.col_sections;
  if (sp.full_cols == 0) {
    const std::int64_t sect = sp.full_rows / S;        // one section
    const std::int64_t blk = sect / sp.row_blocks;     // my block in it
    for (std::int64_t s = 0; s < S; ++s) {
      fn(s * blk, s * sect + sp.row_index * blk, blk);
    }
    return;
  }
  const std::int64_t rows = sp.full_rows / sp.row_blocks;
  const std::int64_t sect = sp.full_cols / S;
  const std::int64_t cw = sect / sp.col_blocks;  // local cols per section
  const std::int64_t r0 = static_cast<std::int64_t>(sp.row_index) * rows;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t s = 0; s < S; ++s) {
      fn(r * (S * cw) + s * cw,
         (r0 + r) * sp.full_cols + s * sect + sp.col_index * cw, cw);
    }
  }
}

}  // namespace

void add_to_full(const nn::ShardSpec& spec, std::span<const float> local,
                 std::span<float> full) {
  for_each_run(spec, [&](std::int64_t lo, std::int64_t fo, std::int64_t n) {
    std::memcpy(full.data() + fo, local.data() + lo,
                static_cast<std::size_t>(n) * sizeof(float));
  });
}

void slice_from_full(const nn::ShardSpec& spec, std::span<const float> full,
                     std::span<float> local) {
  for_each_run(spec, [&](std::int64_t lo, std::int64_t fo, std::int64_t n) {
    std::memcpy(local.data() + lo, full.data() + fo,
                static_cast<std::size_t>(n) * sizeof(float));
  });
}

tensor::Tensor gather_full(collective::Group& group, int grank,
                           const nn::ShardSpec& spec,
                           const tensor::Tensor& local) {
  const tensor::Shape full_shape =
      spec.full_cols == 0 ? tensor::Shape{spec.full_rows}
                          : tensor::Shape{spec.full_rows, spec.full_cols};
  tensor::Tensor full(full_shape, 0.0f);
  if (spec.primary) add_to_full(spec, local.data(), full.data());
  group.all_reduce(grank, full.data(), 1.0f, tensor::Dtype::kF32);
  return full;
}

tensor::Tensor serial_weight(std::int64_t in, std::int64_t out,
                             std::uint64_t seed) {
  return tensor::randn(tensor::Shape{in, out}, seed, 0.0f,
                       1.0f / std::sqrt(static_cast<float>(in)));
}

nn::Parameter shard_parameter(std::string name, const tensor::Tensor& full,
                              const nn::ShardSpec& spec) {
  if (full.numel() != spec.full_numel()) {
    throw std::invalid_argument("relayout: '" + name +
                                "' does not match its shard spec");
  }
  nn::Parameter p(std::move(name), tensor::Tensor(local_shape(spec)));
  slice_from_full(spec, full.data(), p.value.data());
  p.shard = spec;
  return p;
}

tensor::Shape local_shape(const nn::ShardSpec& spec) {
  check(spec);
  if (spec.full_cols == 0) {
    return tensor::Shape{spec.full_rows / spec.row_blocks};
  }
  return tensor::Shape{spec.full_rows / spec.row_blocks,
                       spec.full_cols / spec.col_blocks};
}

}  // namespace ca::tp
