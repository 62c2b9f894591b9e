#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "core/knobs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/device.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/topology.hpp"

namespace ca::sim {

/// The simulated multi-GPU machine: one Device per rank plus the host memory
/// pool, connected by a Topology. `run` executes an SPMD function on one
/// thread per rank, mirroring the MPI model (all parallelism explicit, ranks
/// communicate only through collective:: primitives).
///
/// Contract: the SPMD function must be communication-symmetric — every rank
/// reaches the same sequence of collective calls — and memory-symmetric, so
/// that an OomError unwinds every rank at the same call site instead of
/// stranding some ranks at a rendezvous.
class Cluster {
 public:
  /// Takes the sim.* and metrics.* knobs from `knobs`; by default from the
  /// environment alone, so any harness can be flipped wholesale.
  explicit Cluster(Topology topo,
                   core::Knobs knobs = core::Knobs::resolve());

  [[nodiscard]] int world_size() const { return static_cast<int>(devices_.size()); }
  [[nodiscard]] Device& device(int rank) { return *devices_.at(static_cast<std::size_t>(rank)); }
  [[nodiscard]] const Device& device(int rank) const {
    return *devices_.at(static_cast<std::size_t>(rank));
  }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  /// The knobs this cluster was built with.
  [[nodiscard]] const core::Knobs& knobs() const { return knobs_; }

  /// Host (CPU) memory pool for the offloading engine. Defaults to 512 GiB,
  /// as on the DGX-class machines in Table 2.
  [[nodiscard]] MemoryTracker& host_mem() { return host_mem_; }

  /// NVMe pool (effectively unbounded) for the deepest offload tier.
  [[nodiscard]] MemoryTracker& nvme_mem() { return nvme_mem_; }

  /// Run `fn(rank)` SPMD on all world_size ranks and wait for completion —
  /// one OS thread per rank (kThreads, the oracle) or fibers on a worker
  /// pool (kTasks, see TaskScheduler); both produce bit-identical results.
  /// The first exception thrown by any rank — in throw order, so the root
  /// cause, not a survivor's secondary CommTimeoutError — is rethrown here
  /// after all ranks finish. A throwing rank aborts the region through
  /// fault_state(), which cancels every rendezvous the peers are blocked on
  /// (they unwind with CommTimeoutError instead of deadlocking).
  void run(const std::function<void(int)>& fn);

  // ---- execution backend ------------------------------------------------------

  /// Backend run() uses; starts at the `sim.backend` knob.
  [[nodiscard]] SimBackend backend() const { return backend_; }
  void set_backend(SimBackend b) { backend_ = b; }
  /// Worker threads for the tasks backend; 0 = one per hardware thread,
  /// clamped to world size. Starts at the `sim.workers` knob.
  [[nodiscard]] int workers() const { return workers_; }
  void set_workers(int w) { workers_ = w; }
  /// Per-fiber stack bytes; 0 = scheduler default. From CA_SIM_STACK_KB.
  [[nodiscard]] std::size_t stack_bytes() const { return stack_bytes_; }

  /// Max of all device clocks — wall-clock time of the SPMD program.
  [[nodiscard]] double max_clock() const;
  /// Sum of bytes_sent over all ranks — total interconnect traffic.
  [[nodiscard]] std::int64_t total_bytes_sent() const;

  /// Zero all clocks, peaks, and byte counters (new measurement). Keeps the
  /// tracer attached but drops any recorded events.
  void reset_stats();

  // ---- fault injection --------------------------------------------------------

  /// Activate the fault plan: builds the injector, hands every Device its
  /// pointer, and arms the watchdog budget. Call outside the SPMD region.
  /// Replaces any previous plan.
  FaultInjector& install_faults(FaultPlan plan);
  /// The injector, or nullptr while fault injection is off.
  [[nodiscard]] const FaultInjector* fault_injector() const {
    return injector_.get();
  }

  /// Shared abort registry: which ranks died, the first cause, and the wake
  /// hooks that keep survivors from blocking on a dead member's rendezvous.
  [[nodiscard]] FaultState& fault_state() { return fault_state_; }

  // ---- tracing ----------------------------------------------------------------

  /// Turn on per-rank timeline tracing: creates (or reuses) the Tracer,
  /// hands each Device its rank buffer, and installs memory samplers on the
  /// device/host/NVMe pools. Call outside the SPMD region. Idempotent.
  obs::Tracer& enable_tracing();
  /// Detach all buffers and samplers; events collected so far stay readable
  /// through tracer(). The emit points revert to their single disabled-path
  /// branch.
  void disable_tracing();
  /// The tracer, or nullptr if enable_tracing was never called.
  [[nodiscard]] obs::Tracer* tracer() { return tracer_.get(); }

  // ---- online metrics ---------------------------------------------------------

  /// Turn on the per-rank metric registry: creates (or reuses) the
  /// MetricsRegistry and hands each Device its rank sink. Call outside the
  /// SPMD region. Idempotent. The `metrics` knob set to on enables this at
  /// construction.
  obs::MetricsRegistry& enable_metrics();
  /// Detach all sinks; values collected so far stay readable through
  /// metrics(). The emit points revert to their single disabled-path branch.
  void disable_metrics();
  /// The registry, or nullptr if enable_metrics was never called.
  [[nodiscard]] obs::MetricsRegistry* metrics() { return metrics_.get(); }

 private:
  Topology topo_;
  std::vector<std::unique_ptr<Device>> devices_;
  SimBackend backend_ = SimBackend::kThreads;
  int workers_ = 0;
  std::size_t stack_bytes_ = 0;
  MemoryTracker host_mem_;
  MemoryTracker nvme_mem_{"nvme", 0, -1, /*shared=*/true};  // unlimited
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  int hist_buckets_ = obs::kDefaultHistBuckets;
  FaultState fault_state_;
  std::unique_ptr<FaultInjector> injector_;
  core::Knobs knobs_;
};

}  // namespace ca::sim
