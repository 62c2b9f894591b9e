#pragma once

// Isolated layer probes: each times one public call in a loop at a
// workload's shapes, with nothing else running — busy time, to set beside
// the in-step spans, which also include waiting.

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// tensor.gemm_gflops, tensor.convert_gbps, collective.rendezvous_us,
/// collective.allreduce_gbps, collective.rs_ag_gbps, sim.region_us and
/// core.context_ms for `plan`. The all-reduce and reduce-scatter/all-gather
/// probes run on `workers` tasks-backend workers, the 64-rank rendezvous
/// probe on kCostOnlyWorkers.
void run_probes(const ProbePlan& plan, int workers, bool smoke, Metrics& m);

}  // namespace perfbench
