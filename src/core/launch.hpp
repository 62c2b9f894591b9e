#pragma once

#include <functional>
#include <memory>

#include "collective/backend.hpp"
#include "core/config_parser.hpp"
#include "core/context.hpp"
#include "core/knobs.hpp"
#include "sim/fault.hpp"
#include "tp/env.hpp"

namespace ca::core {

/// The `colossalai.launch` analogue: bundles a simulated cluster, its
/// collective backend, and the parallel context behind one object so user
/// code goes from config to SPMD region in two lines:
///
///   auto world = core::launch("tensor.size=4 tensor.mode=2d",
///                             sim::Topology::system_i());
///   world->run([&](tp::Env env) { ... });
class LaunchedWorld {
 public:
  LaunchedWorld(Config config, sim::Topology topo)
      : cluster_(std::move(topo), Knobs::resolve(&config)),
        backend_(cluster_),
        ctx_(backend_, config) {
    // Any CA_FAULT_* variable arms fault injection, the no-recompile way to
    // run an experiment under faults; the watchdog is armed either way.
    const Knobs& knobs = cluster_.knobs();
    if (auto plan = sim::FaultPlan::from_env(knobs)) {
      cluster_.install_faults(std::move(*plan));
    } else {
      cluster_.fault_state().set_watchdog(knobs.real(Knob::kFaultWatchdog));
    }
  }

  /// SPMD entry point; the callable receives a ready-made per-rank Env.
  void run(const std::function<void(tp::Env)>& fn) {
    cluster_.run([&](int rank) { fn(tp::Env{&ctx_, rank}); });
  }

  [[nodiscard]] sim::Cluster& cluster() { return cluster_; }
  [[nodiscard]] collective::Backend& backend() { return backend_; }
  [[nodiscard]] ParallelContext& context() { return ctx_; }
  [[nodiscard]] int world_size() const { return ctx_.world_size(); }

 private:
  sim::Cluster cluster_;
  collective::Backend backend_;
  ParallelContext ctx_;
};

/// Launch from the textual Listing-1 configuration. The topology defaults to
/// a uniform 100 GB/s fabric of the configured world size.
inline std::unique_ptr<LaunchedWorld> launch(const std::string& config_text,
                                             std::optional<sim::Topology> topo =
                                                 std::nullopt) {
  Config cfg = parse_config(config_text);
  if (!topo.has_value()) {
    topo = sim::Topology::uniform(cfg.world_size(), 100e9);
  }
  if (topo->num_devices() != cfg.world_size()) {
    throw std::invalid_argument(
        "topology has " + std::to_string(topo->num_devices()) +
        " devices but the configuration needs " +
        std::to_string(cfg.world_size()));
  }
  return std::make_unique<LaunchedWorld>(cfg, std::move(*topo));
}

}  // namespace ca::core
