#pragma once

// The benchmark's three workloads. Each owns its simulated world(s), builds
// them in setup() (world and context construction, model build, schedule
// compile and one warm-up step), and runs one training step per step() on
// the tasks backend. All inputs derive from the run seed.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collective/backend.hpp"
#include "core/context.hpp"
#include "sim/cluster.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "tp/env.hpp"

namespace perfbench {

namespace collective = ca::collective;
namespace core = ca::core;
namespace sim = ca::sim;
namespace tp = ca::tp;

struct Settings {
  std::uint64_t seed = 1;
  int workers = 1;     ///< tasks-backend worker threads
  bool smoke = false;  ///< tiny shapes, for checking the metric plumbing
  bool cross = false;  ///< short pass run only for another workload's layers
};

/// A cluster, its backend and parallel context, on the tasks backend with a
/// bf16 comm wire.
struct World {
  World(sim::Topology topo, const core::Config& cfg, int workers);
  tp::Env env(int grank) { return tp::Env{&ctx, grank}; }

  sim::Cluster cluster;
  collective::Backend backend;
  core::ParallelContext ctx;
};

/// Move every device clock up to the latest one (a step boundary, as after a
/// barrier) and return it: the simulated start of the next step.
double align_clocks(sim::Cluster& cluster);

/// Tasks-backend workers of the cost-only 64-rank runs (table3_cost64 and
/// the rendezvous probe). Their host time is rendezvous among 64 fibers; on
/// several workers it is dominated by cross-core wake-ups: on a 4-vCPU VM
/// its step time spread 14% (IQR over median, ten runs) on 4 workers and
/// about 7% on one.
constexpr int kCostOnlyWorkers = 1;

using TopoFn = sim::Topology (*)();

/// Shapes the isolated layer probes run at for one workload.
struct ProbePlan {
  std::int64_t gemm_m = 0, gemm_k = 0, gemm_n = 0;
  std::int64_t convert_elems = 0;
  TopoFn ar_topo = nullptr;  ///< all_reduce over the data groups of ar_cfg
  core::Config ar_cfg;
  std::int64_t ar_elems = 0;
  TopoFn rs_topo = nullptr;  ///< reduce_scatter + all_gather, rs_cfg's data groups
  core::Config rs_cfg;
  std::int64_t rs_elems = 0;
  TopoFn region_topo = nullptr;  ///< empty Cluster::run at this world size
  int region_workers = 1;        ///< ... on the workload's worker count
  /// ParallelContext constructions timed together (one world each).
  std::vector<std::pair<TopoFn, core::Config>> contexts;
};

class Workload {
 public:
  Workload(Settings s, int lanes) : settings_(s), spans_(lanes) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;
  /// Build a fresh world (dropping the previous one) and run the warm-up
  /// step. Returns false when the warm-up step fails its output check.
  virtual bool setup() = 0;
  /// One training step; false when its output check fails.
  virtual bool step() = 0;
  [[nodiscard]] virtual std::int64_t samples_per_step() const = 0;
  /// Tasks-backend workers the workload's clusters run on.
  [[nodiscard]] virtual int workers() const { return settings_.workers; }
  /// The timed phase ends on a multiple of this many steps.
  [[nodiscard]] virtual int block_steps() const { return 1; }
  /// Clusters a step runs on (tracing is switched on these).
  virtual std::vector<sim::Cluster*> clusters() = 0;

  /// Layer metrics from the host spans of the traced steps.
  virtual void span_metrics(Metrics& m) const = 0;
  /// Layer metrics from the simulator trace of `steps` traced steps; the
  /// tracers hold exactly those steps' events.
  virtual void sim_trace_metrics(Metrics& m, int steps);
  /// Serial-replica metrics (nn.*); false when the workload has none.
  virtual bool serial_metrics(Metrics& m) { (void)m; return false; }
  [[nodiscard]] virtual ProbePlan probe_plan() const = 0;

  /// Simulated seconds the last step() took.
  [[nodiscard]] double last_sim_s() const { return last_sim_s_; }
  SpanLog& spans() { return spans_; }

 protected:
  Settings settings_;
  SpanLog spans_;
  double last_sim_s_ = 0.0;
};

/// "hybrid_train", "zero3_ckpt" or "table3_cost64"; nullptr for other names.
std::unique_ptr<Workload> make_workload(const std::string& name, Settings s);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
