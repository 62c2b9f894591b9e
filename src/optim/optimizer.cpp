#include "optim/optimizer.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "core/serialize.hpp"

namespace ca::optim {

namespace t = ca::tensor;

namespace {

void write_tensors(std::ostream& os, const std::vector<t::Tensor>& ts,
                   const Optimizer::TensorWriter& write) {
  core::write_i64(os, static_cast<std::int64_t>(ts.size()));
  for (std::size_t i = 0; i < ts.size(); ++i) write(os, i, ts[i]);
}

void read_tensors(std::istream& is, std::vector<t::Tensor>& ts,
                  const Optimizer::TensorReader& read) {
  const std::int64_t n = core::read_i64(is);
  if (n != static_cast<std::int64_t>(ts.size())) {
    throw std::runtime_error("optimizer state: tensor count mismatch");
  }
  for (std::size_t i = 0; i < ts.size(); ++i) read(is, i, ts[i]);
}

}  // namespace

Optimizer::TensorWriter Optimizer::raw_writer() {
  return [](std::ostream& os, std::size_t, const t::Tensor& x) {
    core::write_i64(os, x.numel());
    core::write_f32s(os, x.data().data(), x.numel());
  };
}

Optimizer::TensorReader Optimizer::raw_reader() {
  return [](std::istream& is, std::size_t, t::Tensor& x) {
    if (core::read_i64(is) != x.numel()) {
      throw std::runtime_error("optimizer state: tensor size mismatch");
    }
    core::read_f32s(is, x.data().data(), x.numel());
  };
}

void Optimizer::save_state(std::ostream& os) const {
  save_state(os, raw_writer());
}
void Optimizer::load_state(std::istream& is) { load_state(is, raw_reader()); }

void Optimizer::save_state(std::ostream&, const TensorWriter&) const {}
void Optimizer::load_state(std::istream&, const TensorReader&) {}

// ---- Sgd -----------------------------------------------------------------------

Sgd::Sgd(std::vector<nn::Parameter*> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  if (momentum_ != 0.0f) {
    velocity_.reserve(params_.size());
    for (nn::Parameter* p : params_) velocity_.emplace_back(p->value.shape(), 0.0f);
  }
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Parameter& p = *params_[i];
    if (momentum_ == 0.0f) {
      t::axpy_(p.value, -lr_, p.grad);
    } else {
      // One fused sweep instead of three (scale_, add_, axpy_); the
      // per-element operation order is unchanged, so results are identical.
      auto pv = p.value.data();
      auto pg = p.grad.data();
      auto pvel = velocity_[i].data();
      const float mom = momentum_, lr = lr_;
      const auto n = static_cast<std::int64_t>(pv.size());
#pragma omp parallel for simd schedule(static) \
    if (parallel : n >= t::kOmpMinElems)
      for (std::int64_t e = 0; e < n; ++e) {
        const auto ii = static_cast<std::size_t>(e);
        const float vel = mom * pvel[ii] + pg[ii];
        pvel[ii] = vel;
        pv[ii] -= lr * vel;
      }
    }
  }
}

void Sgd::save_state(std::ostream& os, const TensorWriter& write) const {
  write_tensors(os, velocity_, write);
}
void Sgd::load_state(std::istream& is, const TensorReader& read) {
  read_tensors(is, velocity_, read);
}

// ---- Adam ----------------------------------------------------------------------

Adam::Adam(std::vector<nn::Parameter*> params, Hyper hyper)
    : Optimizer(std::move(params)), hyper_(hyper) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (nn::Parameter* p : params_) {
    m_.emplace_back(p->value.shape(), 0.0f);
    v_.emplace_back(p->value.shape(), 0.0f);
  }
}

void Adam::update(const Hyper& h, std::int64_t t, std::span<float> w,
                  std::span<const float> g, std::span<float> m,
                  std::span<float> v) {
  const float b1 = h.beta1, b2 = h.beta2;
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
  const auto n = static_cast<std::int64_t>(w.size());
  // Elementwise-independent, and callers enter from a single thread per
  // rank (Adam::step, HybridAdam::step, ZeroOptimizer::step), so the team
  // parallelism is safe.
#pragma omp parallel for simd schedule(static) \
    if (parallel : n >= t::kOmpMinElems)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    float gi = g[ii];
    if (h.weight_decay != 0.0f && !h.decoupled) gi += h.weight_decay * w[ii];
    m[ii] = b1 * m[ii] + (1.0f - b1) * gi;
    v[ii] = b2 * v[ii] + (1.0f - b2) * gi * gi;
    const float mhat = m[ii] / bc1;
    const float vhat = v[ii] / bc2;
    float delta = mhat / (std::sqrt(vhat) + h.eps);
    if (h.weight_decay != 0.0f && h.decoupled) delta += h.weight_decay * w[ii];
    w[ii] -= h.lr * delta;
  }
}

void Adam::step() {
  ++t_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    update(hyper_, t_, params_[i]->value.data(), params_[i]->grad.data(),
           m_[i].data(), v_[i].data());
  }
}

void Adam::save_state(std::ostream& os, const TensorWriter& write) const {
  core::write_i64(os, t_);
  write_tensors(os, m_, write);
  write_tensors(os, v_, write);
}

void Adam::load_state(std::istream& is, const TensorReader& read) {
  t_ = core::read_i64(is);
  read_tensors(is, m_, read);
  read_tensors(is, v_, read);
}

std::int64_t Adam::state_bytes() const {
  std::int64_t n = 0;
  for (const nn::Parameter* p : params_) n += p->numel();
  return 2 * n * 4;
}

}  // namespace ca::optim
