#include "models/shell.hpp"

#include <algorithm>
#include <stdexcept>

#include "sp/ring_attention.hpp"
#include "tp/block3d.hpp"
#include "tp/block_grid.hpp"
#include "tp/linear1d.hpp"

namespace ca::models {

namespace t = ca::tensor;

namespace {

std::string to_string(Layout l) {
  switch (l) {
    case Layout::kNone: return "none";
    case Layout::k1d: return "1d";
    case Layout::k2d: return "2d";
    case Layout::k2p5d: return "2.5d";
    case Layout::k3d: return "3d";
    case Layout::kSequence: return "sequence";
  }
  return "?";
}

bool is_grid(Layout l) { return l == Layout::k2d || l == Layout::k2p5d; }

/// Reassemble the rank-major, equally shaped (rows, cols) blocks in `flat`
/// into the full matrix; `place(rank)` is the block's (row chunk, col chunk).
template <class Place>
t::Tensor reassemble(const t::Tensor& flat, std::int64_t rows,
                     std::int64_t cols, int row_chunks, int col_chunks,
                     Place place) {
  t::Tensor full(t::Shape{rows * row_chunks, cols * col_chunks});
  auto pf = full.data();
  auto pb = flat.data();
  const std::int64_t full_cols = cols * col_chunks;
  for (int m = 0; m < row_chunks * col_chunks; ++m) {
    const auto [rc, cc] = place(m);
    const float* src = pb.data() + m * rows * cols;
    for (std::int64_t r = 0; r < rows; ++r) {
      std::copy(src + r * cols, src + (r + 1) * cols,
                pf.data() + (rc * rows + r) * full_cols + cc * cols);
    }
  }
  return full;
}

}  // namespace

Layout layout_of(const tp::Env* env) {
  if (env == nullptr) return Layout::kNone;
  const core::Config& cfg = env->ctx->config();
  if (cfg.sequence_parallel_size > 1) return Layout::kSequence;
  switch (cfg.tensor_mode) {
    case core::TpMode::kNone: return Layout::kNone;
    case core::TpMode::k1d: return Layout::k1d;
    case core::TpMode::k2d: return Layout::k2d;
    case core::TpMode::k2p5d: return Layout::k2p5d;
    case core::TpMode::k3d: return Layout::k3d;
  }
  return Layout::kNone;
}

Layout layout_for(const char* model, const tp::Env* env,
                  std::initializer_list<Layout> builds) {
  const Layout l = layout_of(env);
  if (std::find(builds.begin(), builds.end(), l) == builds.end()) {
    throw std::invalid_argument(std::string(model) + " does not build the " +
                                to_string(l) + " layout");
  }
  return l;
}

std::unique_ptr<nn::Module> make_linear(const tp::Env* env, std::string name,
                                        std::int64_t in, std::int64_t out,
                                        std::uint64_t seed) {
  switch (layout_of(env)) {
    case Layout::k2d:
    case Layout::k2p5d:
      return std::make_unique<tp::Linear2p5D>(*env, name, in, out, seed);
    case Layout::k3d:
      return std::make_unique<tp::Linear3D>(*env, name, in, out, seed);
    case Layout::kNone:
    case Layout::k1d:
    case Layout::kSequence:
      break;
  }
  return std::make_unique<nn::Linear>(name, in, out, seed);
}

std::unique_ptr<nn::Module> make_mlp(const tp::Env* env, std::string name,
                                     std::int64_t hidden, std::int64_t ffn,
                                     std::uint64_t seed) {
  switch (layout_of(env)) {
    case Layout::k1d:
      return std::make_unique<tp::Mlp1D>(*env, name, hidden, ffn, seed);
    case Layout::k2d:
    case Layout::k2p5d:
      return std::make_unique<tp::Mlp2p5D>(*env, name, hidden, ffn, seed);
    case Layout::k3d:
      return std::make_unique<tp::Mlp3D>(*env, name, hidden, ffn, seed);
    case Layout::kNone:
    case Layout::kSequence:
      break;
  }
  return std::make_unique<nn::Mlp>(name, hidden, ffn, seed);
}

std::unique_ptr<nn::Module> make_block(const tp::Env* env, std::string name,
                                       std::int64_t hidden, std::int64_t heads,
                                       std::int64_t ffn, std::uint64_t seed) {
  switch (layout_of(env)) {
    case Layout::kNone:
      break;
    case Layout::k1d:
      return std::make_unique<tp::TransformerBlock1D>(*env, name, hidden,
                                                      heads, ffn, seed);
    case Layout::k2d:
    case Layout::k2p5d:
      return std::make_unique<tp::GridTransformerBlock>(*env, name, hidden,
                                                        heads, ffn, seed);
    case Layout::k3d:
      return std::make_unique<tp::TransformerBlock3D>(*env, name, hidden,
                                                      heads, ffn, seed);
    case Layout::kSequence:
      return std::make_unique<ca::sp::TransformerBlockSP>(*env, name, hidden,
                                                          heads, ffn, seed);
  }
  return std::make_unique<nn::TransformerBlock>(name, hidden, heads, ffn,
                                                seed);
}

t::Tensor MeanPool::forward(const t::Tensor& tokens) {
  const std::int64_t b = tokens.dim(0), s = tokens.dim(1), h = tokens.dim(2);
  local_seq_ = s;
  t::Tensor pooled(t::Shape{b, h}, 0.0f);
  auto pt = tokens.data();
  auto pp = pooled.data();
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t si = 0; si < s; ++si)
      for (std::int64_t c = 0; c < h; ++c)
        pp[static_cast<std::size_t>(bi * h + c)] +=
            pt[static_cast<std::size_t>((bi * s + si) * h + c)];
  t::scale_(pooled, 1.0f / static_cast<float>(full_seq_));
  return pooled;
}

t::Tensor MeanPool::backward(const t::Tensor& dpooled) {
  const std::int64_t b = dpooled.dim(0), s = local_seq_, h = dpooled.dim(1);
  t::Tensor dtokens(t::Shape{b, s, h});
  auto pd = dtokens.data();
  auto pp = dpooled.data();
  const float inv = 1.0f / static_cast<float>(full_seq_);
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t si = 0; si < s; ++si)
      for (std::int64_t c = 0; c < h; ++c)
        pd[static_cast<std::size_t>((bi * s + si) * h + c)] =
            pp[static_cast<std::size_t>(bi * h + c)] * inv;
  return dtokens;
}

t::Tensor SequenceSum::forward(const t::Tensor& partial) {
  auto sum = partial.clone();
  env_.ctx->sequence_group(env_.grank)
      .all_reduce(env_.grank, sum.data(), 1.0f, env_.ctx->comm_dtype());
  return sum;
}

ClassifierShell::ClassifierShell(const char* model, const tp::Env* env,
                                 std::initializer_list<Layout> builds)
    : layout_(layout_for(model, env, builds)) {
  if (env != nullptr) env_ = *env;
}

t::Tensor ClassifierShell::logits(const t::Tensor& x_full) {
  t::Tensor x = x_full;
  if (is_grid(layout_)) {
    x = tp::Linear2p5D::shard_activation(x_full, *env_);
  } else if (layout_ == Layout::k3d) {
    const core::ParallelContext& ctx = *env_->ctx;
    x = tp::Linear3D::shard_input(x_full, ctx.grid_side(),
                                  ctx.cube_i(env_->grank),
                                  ctx.cube_j(env_->grank),
                                  ctx.cube_k(env_->grank));
  } else if (layout_ == Layout::kSequence) {
    auto& g = env_->ctx->sequence_group(env_->grank);
    x = t::chunk(x_full, 1, g.size(), g.index_of(env_->grank));
  }
  t::Tensor local = body_.forward(x);
  if (!is_grid(layout_) && layout_ != Layout::k3d) return local;

  // gather the output blocks of the grid or cube layout
  core::ParallelContext& ctx = *env_->ctx;
  auto& g = ctx.tensor_group(env_->grank);
  t::Tensor flat(t::Shape{local.numel() * g.size()});
  g.all_gather(env_->grank, local.data(), flat.data());
  const std::int64_t br = local.dim(0), bc = local.dim(1);
  const int q = ctx.grid_side();
  if (is_grid(layout_)) {
    return reassemble(flat, br, bc, ctx.depth() * q, q, [q](int m) {
      const int dd = m / (q * q), r = (m / q) % q, c = m % q;
      return std::pair<int, int>{dd * q + r, c};
    });
  }
  return reassemble(flat, br, bc, q * q, q, [q](int m) {
    const int i = m / (q * q), j = (m / q) % q, k = m % q;
    return std::pair<int, int>{i * q + k, j};
  });
}

float ClassifierShell::train_batch(const t::Tensor& x_full,
                                   std::span<const std::int64_t> labels) {
  t::Tensor dl;
  const float loss = t::cross_entropy(logits(x_full), labels, dl);
  // this rank's block of dlogits, in the layout the body's output has
  if (is_grid(layout_)) {
    dl = tp::Linear2p5D::shard_activation(dl, *env_);
  } else if (layout_ == Layout::k3d) {
    const core::ParallelContext& ctx = *env_->ctx;
    dl = tp::Linear3D::shard_output(dl, ctx.grid_side(),
                                    ctx.cube_i(env_->grank),
                                    ctx.cube_j(env_->grank),
                                    ctx.cube_k(env_->grank));
  }
  body_.backward(dl);
  for (nn::Parameter* p : sequence_partials_) {
    env_->ctx->sequence_group(env_->grank)
        .all_reduce(env_->grank, p->grad.data(), 1.0f,
                    env_->ctx->comm_dtype());
  }
  return loss;
}

float ClassifierShell::eval_accuracy(const t::Tensor& x_full,
                                     std::span<const std::int64_t> labels) {
  auto pred = t::argmax_rows(logits(x_full));
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (pred[i] == labels[i]) ++hits;
  return static_cast<float>(hits) / static_cast<float>(labels.size());
}

}  // namespace ca::models
