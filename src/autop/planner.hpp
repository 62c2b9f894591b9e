#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autop/conversion.hpp"
#include "core/config.hpp"
#include "pp/schedule.hpp"

namespace ca::autop {

/// One way to execute a linear layer on the mesh: the sharding of its
/// activations, the per-device costs, and the memory it pins.
struct OpStrategy {
  std::string name;
  ShardingSpec in_spec;   ///< required input activation spec (rows, features)
  ShardingSpec out_spec;  ///< produced output activation spec
  double compute = 0.0;   ///< seconds per step (fwd+bwd) per device
  double comm = 0.0;      ///< strategy-internal collective seconds per step
  std::int64_t param_bytes = 0;  ///< per-device weights + grads
  std::int64_t act_bytes = 0;    ///< per-device activations held for backward
  std::int64_t in_bytes = 0;     ///< per-device input (held if checkpointed)
};

/// A linear layer node in the (chain) computation graph.
struct LinearNode {
  std::string name;
  std::int64_t rows = 0;  ///< batch * seq
  std::int64_t in = 0;
  std::int64_t out = 0;

  /// Enumerate execution strategies on the mesh: replicated, data-parallel
  /// (rows sharded), column-parallel, row-parallel — the building blocks
  /// every hand-designed scheme in this repository uses.
  [[nodiscard]] std::vector<OpStrategy> strategies(const Mesh& mesh,
                                                   double flops_per_sec) const;
};

/// The plan for one node.
struct NodePlan {
  std::string strategy;
  bool checkpointed = false;
  double conversion_cost = 0.0;  ///< redistribution from the previous node
};

struct Plan {
  std::vector<NodePlan> nodes;
  double step_seconds = 0.0;       ///< compute + comm + conversions (+ recompute)
  std::int64_t peak_bytes = 0;     ///< per-device params + held activations
  bool feasible = true;
};

/// Intra-operator strategy search over a chain of linear layers, in the
/// spirit of Alpa's intra-op pass with the paper's two extensions:
/// conversions between adjacent strategies are priced by the greedy
/// redistribution search (not a fixed table), and activation checkpointing
/// is folded into the same optimization — after the Viterbi pass picks the
/// cheapest strategy sequence, nodes are greedily checkpointed (best
/// memory-saved per recompute-second first) until the plan fits the budget.
class Planner {
 public:
  Planner(Mesh mesh, double flops_per_sec)
      : mesh_(mesh), flops_(flops_per_sec) {}

  [[nodiscard]] Plan plan(const std::vector<LinearNode>& graph,
                          std::int64_t memory_budget) const;

 private:
  Mesh mesh_;
  double flops_;
};

/// The pipeline-schedule leg of the plan search.
struct PipeScheduleChoice {
  pp::Schedule sched = pp::Schedule::kOneFOneB;
  pp::PipeTiming timing;
  std::int64_t peak_bytes = 0;  ///< worst-rank resident micro-batch bytes
  bool feasible = true;         ///< fits `memory_budget`
};

/// Pick the cheapest pipeline schedule under a per-device activation memory
/// budget, pricing each compiled candidate with pp::time_schedule. `stage`
/// carries full-stage per-micro seconds; `chunks` is the virtual stages
/// available per rank (1 disables the interleaved candidate, which splits
/// the compute seconds evenly across its chunks). `held_bytes_per_micro`
/// prices one resident micro-batch; a budget <= 0 means unconstrained.
/// Zero-bubble wins on time when memory allows — its uncapped residency is
/// exactly what the budget can veto, which is when the chooser falls back to
/// 1F1B (minimal residency). If nothing fits, the minimum-memory choice is
/// returned with feasible=false.
PipeScheduleChoice best_pipeline_schedule(int stages, int micros, int chunks,
                                          const pp::StageSeconds& stage,
                                          std::int64_t held_bytes_per_micro,
                                          std::int64_t memory_budget);

/// The layout the elastic coordinator re-plans onto after ranks die
/// (DESIGN.md section 13): which TP mode x tensor size x data replicas to
/// run on `survivors` ranks.
struct ElasticLayout {
  core::TpMode mode = core::TpMode::kNone;
  int tensor = 1;      ///< tensor_parallel_size
  int depth = 1;       ///< tensor_depth (2.5D only)
  int data = 1;        ///< data_parallel_size
  int ranks_used = 1;  ///< data * tensor (<= survivors)
  double step_seconds = 0.0;
  bool feasible = false;
};

/// Enumerate every (dp, mode, tensor size) that satisfies the mode's
/// topology requirement (2D: q^2, 2.5D: d*q^2, 3D: l^3) AND the model's
/// divisibility constraints for `rows` x `hidden` layers, then pick the
/// cheapest per coarse compute + Table-1-style comm volumes. Preference
/// order is deterministic: more ranks used first, then lower modeled step
/// time, then the simpler mode — so the same survivor count always yields
/// the same layout on every rank (the consensus property recovery needs).
/// `max_data` caps the data-parallel factor (pass the pre-failure dp to
/// keep the global batch bounded); feasible=false means not even 1 rank
/// works (rows/hidden were degenerate).
ElasticLayout best_survivor_layout(int survivors, std::int64_t rows,
                                   std::int64_t hidden, int max_data,
                                   double flops_per_sec, double bandwidth);

}  // namespace ca::autop
