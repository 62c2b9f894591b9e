#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
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
/// non-viable plan (the default) for non-hierarchical algorithms. The
/// bottleneck link of the rank ring bounds bandwidth — this is what makes 1D
/// tensor parallelism collapse on partially-connected machines (Figs 10-11).
double collective_time(Op op, Algo algo, const sim::Topology& topo,
                       std::span<const int> ranks, std::int64_t bytes,
                       const TwoLevelPlan& plan = {});

/// Point-to-point transfer time between two devices.
double p2p_time(const sim::Topology& topo, int src, int dst, std::int64_t bytes);

/// Bytes a single rank pushes onto the interconnect during `op` with `bytes`
/// of payload per rank: the ring figure, whatever the algorithm. The
/// two-level decomposition satisfies (m-1)/m + (l-1)/(l*m) = (p-1)/p with
/// p = l*m, so hierarchical re-routes the inter-block share over the leader
/// ring but moves exactly the same total per rank; only the *time* model
/// differs by algorithm.
std::int64_t bytes_sent_per_rank(Op op, int group_size, std::int64_t bytes);

}  // namespace ca::collective
