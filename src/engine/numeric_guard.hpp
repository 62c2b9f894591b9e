#pragma once

#include <cmath>
#include <limits>
#include <span>

#include "collective/group.hpp"
#include "nn/module.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "tp/env.hpp"

namespace ca::engine {

/// Scan for NaN/Inf. Early-exits on the first bad element, so the clean-path
/// cost is one pass and the (rare) faulted path stops immediately.
[[nodiscard]] inline bool has_nonfinite(std::span<const float> x) {
  for (const float v : x) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

/// Global skip consensus: every rank contributes its local verdict through a
/// 1-float all-reduce over `group`, so either every rank skips the update or
/// none does — the same contract an AMP loss-scale skip has. Must be called
/// by every member (SPMD).
[[nodiscard]] inline bool any_rank_nonfinite(collective::Group& group,
                                             int grank, bool local_bad) {
  float flag = local_bad ? 1.0f : 0.0f;
  group.all_reduce(grank, std::span<float>(&flag, 1));
  return flag != 0.0f;
}

/// Fault-injection helper: poison a gradient buffer the way a corrupted
/// kernel would (a NaN somewhere in the middle, not just element 0).
inline void poison(std::span<float> x) {
  if (x.empty()) return;
  x[x.size() / 2] = std::numeric_limits<float>::quiet_NaN();
  x[0] = std::numeric_limits<float>::infinity();
}

/// The guarded-step check every engine runs on its gradients before the
/// update: poison them when the fault injector corrupts this rank's `step`,
/// then (when `nan_guard` is on or faults are installed) scan for NaN/Inf
/// and agree over the world group. Returns true when every rank must skip
/// the update; the skip is counted in `skipped` and recorded as a fault
/// event named `event` on the rank's trace. Must be called by every rank.
[[nodiscard]] inline bool skip_nonfinite_step(
    const tp::Env& env, std::span<nn::Parameter* const> params,
    std::int64_t step, bool nan_guard, std::int64_t& skipped,
    const char* event) {
  const sim::FaultInjector* fi = env.dev().fault();
  if (fi != nullptr && fi->corrupt_grads(env.grank, step)) {
    for (nn::Parameter* p : params) poison(p->grad.data());
  }
  if (!nan_guard && fi == nullptr) return false;
  bool bad = false;
  for (nn::Parameter* p : params) {
    if (has_nonfinite(p->grad.data())) {
      bad = true;
      break;
    }
  }
  // World-wide consensus so every rank skips or none does; the skipped step
  // leaves parameters untouched (replicas stay bit-identical).
  if (!any_rank_nonfinite(env.ctx->world_group(), env.grank, bad)) {
    return false;
  }
  ++skipped;
  if (obs::TraceBuffer* tb = env.dev().trace()) {
    const double t = env.dev().clock();
    tb->add(obs::TraceEvent{event, obs::Category::kFault, t, t, t, 0, 0.0, 0.0,
                            {}, {}});
  }
  return true;
}

}  // namespace ca::engine
