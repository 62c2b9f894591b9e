#include "engine/engine.hpp"

#include <cassert>

#include "engine/numeric_guard.hpp"

namespace ca::engine {

namespace t = ca::tensor;

Engine::Engine(const tp::Env& env, nn::Module& model,
               std::unique_ptr<optim::Optimizer> optimizer)
    : Engine(env, model, std::move(optimizer), Options{}) {}

Engine::Engine(const tp::Env& env, nn::Module& model,
               std::unique_ptr<optim::Optimizer> optimizer, Options options)
    : env_(env),
      model_(model),
      optimizer_(std::move(optimizer)),
      options_(options),
      wire_(options.comm_dtype.value_or(env.ctx->comm_dtype())) {
  auto& dp = env_.ctx->data_group(env_.grank);
  if (dp.size() > 1 && options_.grad_sync == Options::GradSync::kBucketed) {
    bucketer_ = std::make_unique<GradBucketer>(
        dp, env_.grank, optimizer_->params(), options_.bucket_bytes, wire_);
    model_.set_grad_ready_hook(
        [this](nn::Parameter& p) { bucketer_->on_grad_ready(p); });
  }
}

void Engine::zero_grad() {
  optimizer_->zero_grad();
  if (bucketer_) bucketer_->start_step();
  has_dlogits_ = false;
}

t::Tensor Engine::forward(const t::Tensor& x) {
  if (env_.dev().metrics() == nullptr) return model_.forward(x);
  const double t0 = env_.dev().clock();
  auto y = model_.forward(x);
  fwd_accum_s_ += env_.dev().clock() - t0;
  return y;
}

float Engine::criterion(const t::Tensor& logits,
                        std::span<const std::int64_t> labels) {
  const float loss = t::cross_entropy(logits, labels, dlogits_);
  has_dlogits_ = true;
  return loss;
}

void Engine::backward() {
  assert(has_dlogits_ && "criterion() must run before backward()");
  if (env_.dev().metrics() == nullptr) {
    model_.backward(dlogits_);
  } else {
    const double t0 = env_.dev().clock();
    model_.backward(dlogits_);
    bwd_accum_s_ += env_.dev().clock() - t0;
  }
  has_dlogits_ = false;
}

void Engine::backward_from(const t::Tensor& dy) {
  if (env_.dev().metrics() == nullptr) {
    model_.backward(dy);
    return;
  }
  const double t0 = env_.dev().clock();
  model_.backward(dy);
  bwd_accum_s_ += env_.dev().clock() - t0;
}

void Engine::step() {
  obs::TraceBuffer* tb = env_.dev().trace();
  obs::MetricsSink* mx = env_.dev().metrics();
  obs::TraceSpan step_span(tb, obs::Category::kMarker, "engine.step");
  const sim::FaultInjector* fi = env_.dev().fault();
  const std::int64_t step = step_count_++;
  const double t_step0 = env_.dev().clock();
  double sync_s = 0.0;
  // Per-step metric flush: fwd/bwd compute accumulated since the last step
  // plus this step's exposed grad-sync wait become the per-rank series the
  // straggler detector scans (a compute straggler inflates its own
  // compute_s; its peers absorb the skew as sync_wait_s).
  const auto record_step = [&] {
    if (mx == nullptr) return;
    mx->counter("engine.steps").inc();
    mx->hist("engine.step_s").record(env_.dev().clock() - t_step0);
    mx->hist("engine.grad_sync_s").record(sync_s);
    mx->hist("engine.fwd_s").record(fwd_accum_s_);
    mx->hist("engine.bwd_s").record(bwd_accum_s_);
    mx->record_series("engine.compute_s", step, fwd_accum_s_ + bwd_accum_s_);
    mx->record_series("engine.sync_wait_s", step, sync_s);
    fwd_accum_s_ = 0.0;
    bwd_accum_s_ = 0.0;
  };
  // Step-triggered fail-stop lands here, before this rank touches any
  // rendezvous of the step: survivors time out at their next collective.
  if (fi != nullptr) fi->on_step(env_.grank, step, env_.dev().clock());

  auto& dp = env_.ctx->data_group(env_.grank);
  if (dp.size() > 1) {
    obs::TraceSpan sync_span(tb, obs::Category::kMarker, "engine.grad_sync");
    const double t_sync0 = env_.dev().clock();
    if (bucketer_) {
      bucketer_->finish();
    } else {
      // Serial fallback: one blocking all-reduce per parameter, with the
      // 1/P averaging fused into the reduce's copy-out phase.
      const float inv = 1.0f / static_cast<float>(dp.size());
      for (nn::Parameter* p : optimizer_->params()) {
        dp.all_reduce(env_.grank, p->grad.data(), inv, wire_);
      }
    }
    sync_s = env_.dev().clock() - t_sync0;
  }

  // The guard runs after the sync: buckets all-reduce flat copies during
  // backward, so an injected corruption must land on p->grad afterwards.
  if (skip_nonfinite_step(env_, optimizer_->params(), step,
                          options_.nan_guard, skipped_steps_,
                          "engine.nan_skip")) {
    if (mx != nullptr) mx->counter("engine.nan_skips").inc();
    record_step();  // a skipped step still counts (and still has timings)
    return;
  }

  {
    obs::TraceSpan opt_span(tb, obs::Category::kMarker, "engine.optim");
    const double t_opt0 = env_.dev().clock();
    optimizer_->step();
    if (mx != nullptr) {
      mx->hist("engine.optim_s").record(env_.dev().clock() - t_opt0);
    }
  }
  record_step();
}

}  // namespace ca::engine
