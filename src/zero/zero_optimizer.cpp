#include "zero/zero_optimizer.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <istream>
#include <ostream>

#include "core/serialize.hpp"

namespace ca::zero {

namespace t = ca::tensor;

ZeroOptimizer::ZeroOptimizer(const tp::Env& env, collective::Group& group,
                             std::vector<nn::Parameter*> params,
                             optim::Adam::Hyper hyper, int stage,
                             std::optional<tensor::Dtype> wire)
    : env_(env),
      group_(group),
      params_(std::move(params)),
      hyper_(hyper),
      stage_(stage),
      wire_(wire.value_or(env.ctx->comm_dtype())) {
  assert(stage_ >= 1 && stage_ <= 3);
  const int world = group_.size();
  const int idx = group_.index_of(env_.grank);
  shards_.reserve(params_.size());
  for (nn::Parameter* p : params_) {
    ParamShard s;
    s.layout = shard_layout(p->numel(), idx, world);
    if (stage_ == 3) {
      s.sharded = std::make_unique<ShardedTensor>(p->name, p->value, group_,
                                                  env_.grank);
      s.master = s.sharded->shard();
      // full value lives only in kCompute state; keep a 0-element handle so
      // accidental use before gather_params() trips an assert.
      p->value = t::Tensor(t::Shape{0});
      p->grad = t::Tensor(t::Shape{0});
    } else {
      s.master = t::Tensor(t::Shape{s.layout.chunk});
      copy_chunk(p->value.data(), s.layout, s.master.data());
    }
    s.m = t::Tensor(t::Shape{s.layout.chunk}, 0.0f);
    s.v = t::Tensor(t::Shape{s.layout.chunk}, 0.0f);
    shards_.push_back(std::move(s));
  }
}

void ZeroOptimizer::gather_params() {
  if (stage_ != 3) return;
  obs::MetricsSink* mx = env_.dev().metrics();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (mx != nullptr) {
      // Stage-3 param reconstruction goes through ShardedTensor's fp32
      // all_gather, not the step()'s wire-dtype pipeline.
      mx->counter("zero.gather_bytes").inc(shards_[i].layout.padded * 4);
    }
    // A fresh buffer per gather, and release() drops only the sharded
    // tensor's handle: the parameter takes the storage over, uncopied.
    params_[i]->value = shards_[i].sharded->gather();
    params_[i]->grad = t::Tensor(params_[i]->value.shape(), 0.0f);
    shards_[i].sharded->release();
  }
}

void ZeroOptimizer::release_params() {
  if (stage_ != 3) return;
  for (nn::Parameter* p : params_) {
    p->value = t::Tensor(t::Shape{0});
    p->grad = t::Tensor(t::Shape{0});
  }
}

void ZeroOptimizer::step() {
  obs::TraceSpan span(env_.dev().trace(), obs::Category::kMarker, "zero.step");
  obs::MetricsSink* mx = env_.dev().metrics();
  const double t_step0 = env_.dev().clock();
  ++t_;
  const float avg = 1.0f / static_cast<float>(group_.size());
  const std::int64_t elem_bytes = t::dtype_bytes(wire_);

  // The per-parameter pipeline (grad sync -> shard update -> param
  // reconstruction) runs over a sliding window of in-flight async
  // collectives: while parameter i's reduce is on the wire, parameters
  // i-1, i-2, ... are being Adam-updated and re-gathered. The window bounds
  // the live wire buffers so sharding still saves memory. Gradient averaging
  // is fused into the reduces' copy-out (the update gets averaged grads).
  constexpr std::size_t kWindow = 4;

  struct GradInFlight {
    std::size_t i = 0;
    t::Tensor grad_shard;
    t::Tensor wire;  // stage 2/3 input (the grad or its padded copy)
    collective::CollectiveHandle h;
  };
  struct GatherInFlight {
    std::size_t i = 0;
    t::Tensor wire;
    collective::CollectiveHandle h;
  };
  std::deque<GradInFlight> grads;
  std::deque<GatherInFlight> gathers;

  auto retire_gather = [&](GatherInFlight& g) {
    g.h.wait();
    auto src = g.wire.data();
    auto dst = params_[g.i]->value.data();
    std::copy(src.begin(), src.begin() + params_[g.i]->numel(), dst.begin());
  };

  auto retire_grad = [&](GradInFlight& pg) {
    pg.h.wait();
    ParamShard& s = shards_[pg.i];
    if (stage_ == 1) {
      copy_chunk(params_[pg.i]->grad.data(), s.layout, pg.grad_shard.data());
    }
    optim::Adam::update(hyper_, t_, s.master.data(), pg.grad_shard.data(),
                        s.m.data(), s.v.data());
    // Stage 3 updated the sharded storage the next gather_params() serves.
    if (stage_ == 3) return;
    GatherInFlight g;
    g.i = pg.i;
    g.wire = t::Tensor(t::Shape{s.layout.padded});
    g.h = group_.all_gather_async(env_.grank, s.master.data(), g.wire.data(),
                                  wire_);
    if (mx != nullptr) {
      // Shard traffic: the gathered size is the all_gather's modeled
      // payload (NCCL convention — see modeled_bytes in group.cpp).
      mx->counter("zero.gather_bytes").inc(s.layout.padded * elem_bytes);
    }
    gathers.push_back(std::move(g));
    if (gathers.size() > kWindow) {
      retire_gather(gathers.front());
      gathers.pop_front();
    }
  };

  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Parameter& p = *params_[i];
    ParamShard& s = shards_[i];
    assert(p.grad.numel() == s.layout.numel);

    GradInFlight pg;
    pg.i = i;
    pg.grad_shard = t::Tensor(t::Shape{s.layout.chunk}, 0.0f);
    if (mx != nullptr) {
      mx->counter("zero.reduce_bytes")
          .inc((stage_ == 1 ? s.layout.numel : s.layout.padded) * elem_bytes);
    }
    if (stage_ == 1) {
      pg.h = group_.all_reduce_async(env_.grank, p.grad.data(), avg, wire_);
    } else {
      // Reduce-scatter the full gradient; only a ragged tail needs a
      // zero-padded copy to make equal chunks.
      if (s.layout.numel == s.layout.padded) {
        pg.wire = p.grad;
      } else {
        pg.wire = t::Tensor(t::Shape{s.layout.padded}, 0.0f);
        auto src = p.grad.data();
        std::copy(src.begin(), src.end(), pg.wire.data().begin());
      }
      pg.h = group_.reduce_scatter_async(env_.grank, pg.wire.data(),
                                         pg.grad_shard.data(), avg, wire_);
    }
    grads.push_back(std::move(pg));
    if (grads.size() > kWindow) {
      retire_grad(grads.front());
      grads.pop_front();
    }
  }
  while (!grads.empty()) {
    retire_grad(grads.front());
    grads.pop_front();
  }
  while (!gathers.empty()) {
    retire_gather(gathers.front());
    gathers.pop_front();
  }
  if (mx != nullptr) {
    mx->hist("zero.step_s").record(env_.dev().clock() - t_step0);
  }
}

void ZeroOptimizer::save_state(std::ostream& os) {
  core::write_i64(os, t_);
  core::write_i64(os, static_cast<std::int64_t>(shards_.size()));
  for (ParamShard& s : shards_) {
    t::Tensor wire(t::Shape{s.layout.padded});
    for (t::Tensor* part : {&s.master, &s.m, &s.v}) {
      group_.all_gather(env_.grank, part->data(), wire.data());
      core::write_i64(os, s.layout.numel);
      core::write_f32s(os, wire.data().data(), s.layout.numel);
    }
  }
}

void ZeroOptimizer::load_state(std::istream& is) {
  t_ = core::read_i64(is);
  if (core::read_i64(is) != static_cast<std::int64_t>(shards_.size())) {
    throw std::runtime_error("zero state: parameter count mismatch");
  }
  std::vector<float> full;
  for (ParamShard& s : shards_) {
    for (t::Tensor* part : {&s.master, &s.m, &s.v}) {
      const std::int64_t n = core::read_i64(is);
      if (n != s.layout.numel) {
        throw std::runtime_error("zero state: tensor size mismatch");
      }
      full.resize(static_cast<std::size_t>(n));
      core::read_f32s(is, full.data(), n);
      // Slice by THIS group's layout, so a checkpoint written at another DP
      // width re-shards here. In place: at stage 3 the master is the sharded
      // storage the next gather_params() serves.
      copy_chunk(full, s.layout, part->data());
    }
  }
  if (stage_ != 3) {
    // Stages 1-2 keep full parameter values in the module; the next forward
    // runs before any step would re-gather them, so refresh here. The
    // refresh goes through the SAME wire dtype as step()'s reconstruction:
    // in a half-wire run the live params at step k were wire-rounded
    // masters, and rounding the restored (identical fp32) masters again
    // reproduces them exactly — bit-identical resume holds per wire dtype.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ParamShard& s = shards_[i];
      t::Tensor wire(t::Shape{s.layout.padded});
      group_.all_gather(env_.grank, s.master.data(), wire.data(), wire_);
      auto src = wire.data();
      auto dst = params_[i]->value.data();
      std::copy(src.begin(), src.begin() + s.layout.numel, dst.begin());
    }
  }
}

std::int64_t ZeroOptimizer::model_state_bytes() const {
  std::int64_t full = 0, shard = 0;
  for (const ParamShard& s : shards_) {
    full += s.layout.numel;
    shard += s.layout.chunk;
  }
  const std::int64_t kF = 4;
  switch (stage_) {
    case 1:  // full params + full grads + sharded master/moments
      return (2 * full + 3 * shard) * kF;
    case 2:  // full params + sharded grads + sharded master/moments
      return (full + 4 * shard) * kF;
    default:  // everything sharded
      return 5 * shard * kF;
  }
}

}  // namespace ca::zero
