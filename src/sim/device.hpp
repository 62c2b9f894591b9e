#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "sim/gpu_model.hpp"
#include "sim/memory.hpp"

namespace ca::sim {

/// One simulated accelerator: identity, memory pool, logical clock, and
/// communication counters. A Device is owned by the Cluster and driven by
/// exactly one SPMD thread; cross-thread access only happens inside
/// collective rendezvous (which are barrier-synchronized: a cost-replay
/// flush's evaluator charges every member's device while they are parked)
/// or after the SPMD region ends.
class Device {
 public:
  Device(int rank, const GpuModel& gpu)
      : rank_(rank),
        gpu_(gpu),
        mem_("gpu" + std::to_string(rank), gpu.memory_bytes, rank) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] const GpuModel& gpu() const { return gpu_; }
  [[nodiscard]] MemoryTracker& mem() { return mem_; }
  [[nodiscard]] const MemoryTracker& mem() const { return mem_; }

  /// Logical time (seconds) this device has spent computing/communicating.
  [[nodiscard]] double clock() const { return clock_; }
  void advance_clock(double seconds) { clock_ += seconds; }
  void set_clock(double seconds) { clock_ = seconds; }
  void reset_clock() { clock_ = 0.0; }
  /// Stable address of the clock, for binding trace buffers/samplers.
  [[nodiscard]] const double* clock_addr() const { return &clock_; }

  /// Advance the clock by the time `flops` of half-precision math takes.
  void compute_fp16(double flops) { compute(flops, gpu_.flops_fp16, "fp16"); }
  /// Advance the clock by the time `flops` of single-precision math takes.
  void compute_fp32(double flops) { compute(flops, gpu_.flops_fp32, "fp32"); }
  /// Named variants: the label shows up on the trace's compute lane.
  void compute_fp16(double flops, const char* what) {
    compute(flops, gpu_.flops_fp16, what);
  }
  void compute_fp32(double flops, const char* what) {
    compute(flops, gpu_.flops_fp32, what);
  }

  /// Total bytes this rank pushed onto the interconnect (collective +
  /// point-to-point). Used to validate Table 1's analytic volumes.
  [[nodiscard]] std::int64_t bytes_sent() const { return bytes_sent_; }
  void add_bytes_sent(std::int64_t b) { bytes_sent_ += b; }
  void reset_bytes_sent() { bytes_sent_ = 0; }

  // ---- tracing ----------------------------------------------------------------

  /// This rank's trace buffer, or nullptr while tracing is off. Emit points
  /// throughout the stack test this pointer — the entire disabled-path cost
  /// of the tracer is that one predictable branch.
  [[nodiscard]] obs::TraceBuffer* trace() const { return trace_; }
  /// Attach (or detach, with nullptr) a trace buffer; binds it to this
  /// device's clock. Called by Cluster::enable_tracing outside the SPMD
  /// region.
  void set_trace(obs::TraceBuffer* buf) {
    trace_ = buf;
    if (buf != nullptr) buf->bind_clock(&clock_);
  }

  // ---- metrics ----------------------------------------------------------------

  /// This rank's metric sink, or nullptr while metrics are off. Emit points
  /// test this pointer — like trace(), the entire disabled-path cost is one
  /// predictable branch.
  [[nodiscard]] obs::MetricsSink* metrics() const { return metrics_; }
  /// Attach (or detach, with nullptr) a metric sink; binds it to this
  /// device's clock. Called by Cluster::enable_metrics outside the SPMD
  /// region.
  void set_metrics(obs::MetricsSink* sink) {
    metrics_ = sink;
    if (sink != nullptr) sink->bind_clock(&clock_);
  }

  // ---- fault injection --------------------------------------------------------

  /// The cluster's fault injector, or nullptr while injection is off. Like
  /// trace(), the entire disabled-path cost is one predictable branch.
  [[nodiscard]] const FaultInjector* fault() const { return fault_; }
  /// Attach (or detach, with nullptr) the injector. Called by
  /// Cluster::install_faults outside the SPMD region.
  void set_fault(const FaultInjector* fi) { fault_ = fi; }

 private:
  void compute(double flops, double rate, const char* what) {
    const double t0 = clock_;
    double seconds = flops / rate;
    if (fault_ != nullptr) {
      // Straggler model: this device's math runs factor-x slower while the
      // fault window covers the op's start. Clocks diverge; data does not.
      seconds *= fault_->compute_slowdown(rank_, t0);
    }
    clock_ += seconds;
    if (trace_ != nullptr) {
      trace_->add(obs::TraceEvent{what, obs::Category::kCompute, t0, clock_,
                                  t0, 0, flops, 0.0, {}, {}});
    }
  }

  int rank_;
  GpuModel gpu_;
  MemoryTracker mem_;
  double clock_ = 0.0;
  std::int64_t bytes_sent_ = 0;
  obs::TraceBuffer* trace_ = nullptr;
  obs::MetricsSink* metrics_ = nullptr;
  const FaultInjector* fault_ = nullptr;
};

}  // namespace ca::sim
