#include "tp/vocab_parallel.hpp"

#include <cassert>
#include <cmath>

#include "tp/relayout.hpp"

namespace ca::tp {

namespace t = ca::tensor;

VocabParallelEmbedding::VocabParallelEmbedding(const Env& env,
                                               std::string name,
                                               std::int64_t vocab,
                                               std::int64_t hidden,
                                               std::uint64_t seed)
    : env_(env),
      vocab_(vocab),
      hidden_(hidden),
      // rows block idx of p of the serial table from the same seed
      table_(shard_parameter(
          name + ".table", t::randn(t::Shape{vocab, hidden}, seed, 0.0f, 0.02f),
          {vocab, hidden, env.ctx->tensor_group(env.grank).size(),
           env.ctx->tensor_group(env.grank).index_of(env.grank), 1, 0})),
      footprint_(env.mem(), param_footprint({&table_})) {
  begin_ = table_.shard->row_index * table_.value.dim(0);
  end_ = begin_ + table_.value.dim(0);
}

t::Tensor VocabParallelEmbedding::forward(std::span<const std::int64_t> ids) {
  auto& g = env_.ctx->tensor_group(env_.grank);
  saved_ids_.assign(ids.begin(), ids.end());
  t::Tensor out(t::Shape{static_cast<std::int64_t>(ids.size()), hidden_}, 0.0f);
  auto po = out.data();
  auto pt = table_.value.data();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::int64_t id = ids[i];
    assert(id >= 0 && id < vocab_);
    if (id < begin_ || id >= end_) continue;  // another rank's row
    const std::int64_t local = id - begin_;
    std::copy(pt.data() + local * hidden_, pt.data() + (local + 1) * hidden_,
              po.data() + static_cast<std::int64_t>(i) * hidden_);
  }
  all_reduce(g, env_.grank, out);  // zeros elsewhere: sum == lookup
  return out;
}

void VocabParallelEmbedding::backward(const t::Tensor& dy) {
  assert(dy.numel() ==
         static_cast<std::int64_t>(saved_ids_.size()) * hidden_);
  auto pg = table_.grad.data();
  auto pd = dy.data();
  for (std::size_t i = 0; i < saved_ids_.size(); ++i) {
    const std::int64_t id = saved_ids_[i];
    if (id < begin_ || id >= end_) continue;
    float* grow = pg.data() + (id - begin_) * hidden_;
    const float* drow = pd.data() + static_cast<std::int64_t>(i) * hidden_;
    for (std::int64_t c = 0; c < hidden_; ++c) grow[c] += drow[c];
  }
}

float VocabParallelCrossEntropy::forward_backward(
    const t::Tensor& local_logits, std::span<const std::int64_t> targets,
    t::Tensor& dlocal) {
  auto& g = env_.ctx->tensor_group(env_.grank);
  const int p = g.size();
  const int idx = g.index_of(env_.grank);
  assert(local_logits.ndim() == 2);
  const std::int64_t rows = local_logits.dim(0);
  const std::int64_t vshard = local_logits.dim(1);
  const std::int64_t vbegin = idx * vshard;
  assert(static_cast<std::int64_t>(targets.size()) == rows);

  auto pl = local_logits.data();

  // 1. global max per row (for stability): local max, then all-reduce(max)
  //    emulated with -sum of negatives? our collectives only sum — use the
  //    standard trick of all-gathering the p scalars per row instead.
  t::Tensor local_max(t::Shape{rows});
  for (std::int64_t r = 0; r < rows; ++r) {
    float m = pl[static_cast<std::size_t>(r * vshard)];
    for (std::int64_t c = 1; c < vshard; ++c)
      m = std::max(m, pl[static_cast<std::size_t>(r * vshard + c)]);
    local_max[r] = m;
  }
  t::Tensor all_max(t::Shape{rows * p});
  g.all_gather(env_.grank, local_max.data(), all_max.data());
  t::Tensor row_max(t::Shape{rows});
  for (std::int64_t r = 0; r < rows; ++r) {
    float m = all_max[r];
    for (int m2 = 1; m2 < p; ++m2)
      m = std::max(m, all_max[m2 * rows + r]);
    row_max[r] = m;
  }

  // 2. global sum of exp, and the target logit (owned by exactly one rank)
  t::Tensor stats(t::Shape{2 * rows}, 0.0f);  // [sumexp | target logit]
  for (std::int64_t r = 0; r < rows; ++r) {
    double se = 0.0;
    for (std::int64_t c = 0; c < vshard; ++c)
      se += std::exp(static_cast<double>(
          pl[static_cast<std::size_t>(r * vshard + c)] - row_max[r]));
    stats[r] = static_cast<float>(se);
    const std::int64_t tgt = targets[static_cast<std::size_t>(r)];
    if (tgt >= vbegin && tgt < vbegin + vshard) {
      stats[rows + r] = pl[static_cast<std::size_t>(r * vshard + tgt - vbegin)] -
                        row_max[r];
    }
  }
  all_reduce(g, env_.grank, stats);

  // 3. loss and the local gradient slice
  dlocal = t::Tensor(local_logits.shape());
  auto pd = dlocal.data();
  double loss = 0.0;
  const float inv_rows = 1.0f / static_cast<float>(rows);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float log_z = std::log(stats[r]);
    loss += log_z - stats[rows + r];
    const std::int64_t tgt = targets[static_cast<std::size_t>(r)];
    for (std::int64_t c = 0; c < vshard; ++c) {
      const float soft = std::exp(pl[static_cast<std::size_t>(r * vshard + c)] -
                                  row_max[r]) /
                         stats[r];
      float grad = soft;
      if (vbegin + c == tgt) grad -= 1.0f;
      pd[static_cast<std::size_t>(r * vshard + c)] = grad * inv_rows;
    }
  }
  return static_cast<float>(loss / static_cast<double>(rows));
}

}  // namespace ca::tp
