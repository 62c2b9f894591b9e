#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "collective/algo.hpp"
#include "sim/topology.hpp"

namespace ca::collective {

/// Collective operations modeled by the cost layer.
enum class Op {
  kAllReduce,
  kReduceScatter,
  kAllGather,
  kBroadcast,
  kReduce,
  kAllToAll,
  kGather,
  kScatter,
};

/// Lower-case wire name of an op ("all_reduce", ...), used for trace spans.
constexpr const char* op_name(Op op) {
  switch (op) {
    case Op::kAllReduce: return "all_reduce";
    case Op::kReduceScatter: return "reduce_scatter";
    case Op::kAllGather: return "all_gather";
    case Op::kBroadcast: return "broadcast";
    case Op::kReduce: return "reduce";
    case Op::kAllToAll: return "all_to_all";
    case Op::kGather: return "gather";
    case Op::kScatter: return "scatter";
  }
  return "unknown";
}

/// Alpha-beta time for a collective over `ranks` moving `bytes` per rank,
/// using ring algorithms (the NCCL default at these sizes). The bottleneck
/// link of the rank ring bounds bandwidth — this is what makes 1D tensor
/// parallelism collapse on partially-connected machines (paper Figs 10-11).
/// This legacy overload is the kChunked cost; prefer the Algo-aware overload.
double collective_time(Op op, const sim::Topology& topo,
                       std::span<const int> ranks, std::int64_t bytes);

/// The fixed link data of one group that every cost formula reads: the
/// group's ring bottleneck and latency plus, for a viable two-level plan,
/// each block's size and ring bottleneck and the leader ring's bottleneck.
/// None of it depends on the message, so a Group derives it once at
/// construction and prices each call with O(#blocks) arithmetic.
struct CostProfile {
  struct Block {
    double size = 0.0;        ///< members in the block
    double bottleneck = 0.0;  ///< ring bottleneck over them (0 if size < 2)
  };
  int size = 0;             ///< group members
  double alpha = 0.0;       ///< per-hop latency
  double bottleneck = 0.0;  ///< ring bottleneck over all members (0 if < 2)
  std::vector<Block> blocks;       ///< the plan's blocks; empty if not viable
  double leader_bottleneck = 0.0;  ///< ring bottleneck over the block leaders
  int min_block = 0;               ///< smallest block size

  [[nodiscard]] bool viable() const { return blocks.size() >= 2; }
};

/// Derive the profile of the group `ranks` (global ranks) with two-level
/// partition `plan` (may be non-viable).
CostProfile make_cost_profile(const sim::Topology& topo,
                              std::span<const int> ranks,
                              const TwoLevelPlan& plan);

/// Algorithm-aware alpha-beta time (see DESIGN.md section 6 for the models):
///   kChunked      — store-and-forward ring (the legacy formulas)
///   kRing         — pipelined chunks: per-hop latency amortized over k
///                   sub-chunks streaming through the ring
///   kHierarchical — intra-block reduce-scatter/all-gather at the block
///                   bottleneck + inter-block exchange over leaders at the
///                   leader-ring bottleneck (kChunked when the plan is not
///                   viable)
///   kSingleRoot   — latency-optimal binary tree (small messages)
/// This is the one cost formula; the overloads below price through it.
double collective_time(Op op, Algo algo, const CostProfile& profile,
                       std::int64_t bytes);

/// The latency (alpha) share of collective_time at the same `bytes`: the
/// formula with every bandwidth term dropped, i.e. hops x alpha. kRing keeps
/// its byte-dependent pipeline depth, so this is not the zero-byte time.
double collective_latency(Op op, Algo algo, const CostProfile& profile,
                          std::int64_t bytes);

/// The same model for a group given by its ranks and two-level plan: builds
/// the profile and prices through the overload above. `plan` may be a
/// non-viable plan for non-hierarchical algorithms.
double collective_time(Op op, Algo algo, const sim::Topology& topo,
                       std::span<const int> ranks, std::int64_t bytes,
                       const TwoLevelPlan& plan);

/// Point-to-point transfer time between two devices.
double p2p_time(const sim::Topology& topo, int src, int dst, std::int64_t bytes);

/// Bytes a single rank pushes onto the interconnect during the ring
/// implementation of `op` with `bytes` of payload per rank.
std::int64_t bytes_sent_per_rank(Op op, int group_size, std::int64_t bytes);

/// Algorithm-aware per-rank interconnect bytes. Identical to the ring figure
/// for every algorithm except kHierarchical, where the inter-block round only
/// moves each block's 1/m share across the slow links.
std::int64_t bytes_sent_per_rank(Op op, Algo algo, int group_size,
                                 std::int64_t bytes, const TwoLevelPlan& plan);

// ---- pipeline schedules -------------------------------------------------------

/// Pipeline micro-batch schedules (executed by pp::Pipeline, modeled here so
/// the autop planner can search over them without depending on the executor):
///   kFillDrain   — GPipe: all forwards, then all backwards
///   kOneFOneB    — PipeDream-flush: same bubble, bounded in-flight micros
///   kInterleaved — Megatron interleaved virtual stages: V chunks per rank
///                  shrink the fill/drain by 1/V
///   kZeroBubble  — backward split into dgrad/wgrad; deferred wgrad fills the
///                  drain bubble (ZB-H1-style)
enum class PipeSched { kFillDrain, kOneFOneB, kInterleaved, kZeroBubble };

/// Canonical knob spelling ("fill_drain", "1f1b", "interleaved",
/// "zero_bubble") — the values CA_PP_SCHEDULE / `pp.schedule` accept.
constexpr const char* pipe_sched_name(PipeSched s) {
  switch (s) {
    case PipeSched::kFillDrain: return "fill_drain";
    case PipeSched::kOneFOneB: return "1f1b";
    case PipeSched::kInterleaved: return "interleaved";
    case PipeSched::kZeroBubble: return "zero_bubble";
  }
  return "unknown";
}

/// Parse a knob spelling; nullopt on anything unknown.
std::optional<PipeSched> parse_pipe_sched(std::string_view name);

/// Per-(virtual-stage, micro) costs of one pipeline configuration. For
/// kInterleaved pass chunks = V and per-chunk seconds; the other schedules
/// take chunks = 1 with full-stage seconds, so plans are comparable at fixed
/// total work per rank (micros * chunks * (fwd + bwd_input + bwd_weight)).
struct PipeCostParams {
  int stages = 1;
  int micros = 1;
  int chunks = 1;
  double fwd_s = 0.0;        ///< forward seconds per micro per chunk
  double bwd_input_s = 0.0;  ///< dgrad seconds per micro per chunk
  double bwd_weight_s = 0.0; ///< wgrad seconds per micro per chunk
  double p2p_s = 0.0;        ///< one activation/dy hop between stages
  bool recompute = true;     ///< activation checkpointing: backward re-runs fwd
};

struct PipeCostResult {
  double step_s = 0.0;           ///< modeled wall time of one training step
  double bubble_fraction = 0.0;  ///< 1 - per-rank busy / step_s
  /// Worst-rank count of micro-batch inputs resident at once (the memory
  /// axis of the schedule tradeoff; multiply by held bytes per micro).
  int peak_micros = 0;
};

/// Analytic per-schedule bubble/latency model (closed-form approximations of
/// the compiled task-DAG executor; DESIGN.md section 12). Consumed by the
/// autop chooser and by planning tests — the traced executor is the oracle.
PipeCostResult pipeline_schedule_cost(PipeSched sched, const PipeCostParams& p);

}  // namespace ca::collective
