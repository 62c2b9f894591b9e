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
#pragma omp parallel for simd schedule(static) if (parallel : n >= (1 << 14))
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

void Adam::update_range(std::size_t idx, std::int64_t begin, std::int64_t end) {
  nn::Parameter& p = *params_[idx];
  auto pv = p.value.data();
  auto pg = p.grad.data();
  auto pm = m_[idx].data();
  auto pvv = v_[idx].data();
  const float b1 = hyper_.beta1, b2 = hyper_.beta2;
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  // Elementwise-independent, and update_range is only entered from a single
  // thread (Adam::step / HybridAdam::step), so the team parallelism is safe.
#pragma omp parallel for simd schedule(static) \
    if (parallel : end - begin >= (1 << 14))
  for (std::int64_t i = begin; i < end; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    float g = pg[ii];
    if (hyper_.weight_decay != 0.0f && !hyper_.decoupled) {
      g += hyper_.weight_decay * pv[ii];
    }
    pm[ii] = b1 * pm[ii] + (1.0f - b1) * g;
    pvv[ii] = b2 * pvv[ii] + (1.0f - b2) * g * g;
    const float mhat = pm[ii] / bc1;
    const float vhat = pvv[ii] / bc2;
    float update = mhat / (std::sqrt(vhat) + hyper_.eps);
    if (hyper_.weight_decay != 0.0f && hyper_.decoupled) {
      update += hyper_.weight_decay * pv[ii];
    }
    pv[ii] -= hyper_.lr * update;
  }
}

void Adam::step() {
  ++t_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    update_range(i, 0, params_[i]->numel());
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
