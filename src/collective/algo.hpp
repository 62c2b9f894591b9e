#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sim/topology.hpp"

namespace ca::collective {

enum class Op;        // cost.hpp
struct CostProfile;  // cost.hpp

/// Collective algorithm family. Every Group collective is compiled into a
/// CommSchedule by one of these builders and executed by the shared schedule
/// engine; the choice changes the modeled communication pattern (cost, bytes,
/// phase structure, chunk-ownership map) but never the arithmetic, which is
/// always the canonical ascending-member fold — so results are bit-identical
/// across algorithms (see DESIGN.md section 6).
enum class Algo {
  kChunked,       ///< ownership-chunked two-phase over the arena (ring-cost)
  kRing,          ///< ring with pipelined chunks (amortizes per-hop latency)
  kHierarchical,  ///< two-level: intra-node RS/AG + inter-node exchange
  kSingleRoot,    ///< small-message: root reduces, tree-broadcasts (n < P fix)
};

/// Lower-case wire name ("chunked", "ring", ...) used to tag comm spans.
constexpr const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kChunked: return "chunked";
    case Algo::kRing: return "ring";
    case Algo::kHierarchical: return "hierarchical";
    case Algo::kSingleRoot: return "single_root";
  }
  return "unknown";
}

/// Two-level partition of a group's ranks for the hierarchical algorithm.
/// Blocks follow Topology::node_of when the group spans multiple real nodes;
/// on flat one-GPU-per-node fabrics (System IV) the ranks are split into
/// ~sqrt(P) contiguous "virtual nodes" instead, which trades nothing in
/// bandwidth but collapses the latency term from O(P) to O(sqrt(P)) hops.
struct TwoLevelPlan {
  /// blocks[b] = ascending group-member indices of block b (ascending by
  /// lowest member, so concatenating blocks is a permutation of 0..P-1).
  std::vector<std::vector<int>> blocks;
  std::vector<int> leaders;  ///< first (lowest) member index of each block
  bool by_node = false;      ///< blocks follow real topology nodes

  [[nodiscard]] bool viable() const { return blocks.size() >= 2; }
  [[nodiscard]] int num_blocks() const { return static_cast<int>(blocks.size()); }
  [[nodiscard]] int min_block() const;
  [[nodiscard]] int max_block() const;

  /// Chunk-ownership permutation: perm[c] = member that owns chunk c, in
  /// slot-major order (slot 0 of every block first, then slot 1, ...), so the
  /// hierarchical schedules distribute chunk work across nodes evenly.
  [[nodiscard]] std::vector<int> owner_permutation() const;
};

/// Partition `ranks` (group members, by global rank) into a two-level plan.
/// Returns a non-viable plan when the group cannot benefit: a single node
/// with multi-GPU nodes, or fewer than 4 members on a flat fabric.
TwoLevelPlan plan_two_level(const sim::Topology& topo,
                            std::span<const int> ranks);

/// Group-external override of the algorithm choice, shared by every group a
/// Backend creates: the resolved `collective_algo` knob, or whatever
/// Backend::set_forced_algo set last. nullopt means "auto".
struct AlgoPolicy {
  std::optional<Algo> forced;
};

/// Picks the algorithm for one collective call from (topology, group span,
/// message bytes). Decision procedure (see DESIGN.md section 6):
///
///   1. AlgoPolicy::forced, if set.
///   2. reducing/broadcast ops with bytes < max(1 KiB, 4*P)  -> kSingleRoot
///      (covers the degenerate n < P case: ownership chunks would be empty)
///   3. otherwise, rank the structurally sensible candidates by modeled
///      alpha-beta time (collective_time) and pick the cheapest:
///        - kChunked       always a candidate
///        - kHierarchical  when the two-level plan is viable and
///                         bytes >= 64 KiB (two extra phase boundaries only
///                         pay off once bandwidth dominates)
///        - kRing          when bytes >= 1 MiB (pipelined chunking only
///                         amortizes its per-hop latency on large buffers)
///      Strict-less comparison in a fixed candidate order, so ties and the
///      final pick are deterministic across members. Cost-ranking is what
///      catches the fabric-dependent crossovers a static table misses — on
///      flat System IV the leader ring's inter-block hops make hierarchical
///      lose to the pipelined ring at 64 MiB, while on System III the
///      node-local bandwidth keeps hierarchical ahead.
///
/// A forced kHierarchical silently degrades to kChunked when the plan is not
/// viable for the group (e.g. a single-node group).
class AlgoSelector {
 public:
  explicit AlgoSelector(const AlgoPolicy* policy = nullptr) : policy_(policy) {}

  /// `bytes` are *wire* bytes (element count x wire element width), so the
  /// bandwidth crossovers shift exactly as the message shrinks on a half
  /// wire; `elem_bytes` is the wire element width, needed only for the
  /// n < P empty-ownership-chunk floor in step 3 (element count = bytes /
  /// elem_bytes, so a 2-byte wire must keep the same *element* floor).
  [[nodiscard]] Algo select(Op op, std::int64_t bytes,
                            const sim::Topology& topo,
                            std::span<const int> ranks,
                            const TwoLevelPlan& plan,
                            std::int64_t elem_bytes = 4) const;

  /// The same decision for a group whose link data is already in `profile`
  /// (Group keeps one per group): O(#blocks) arithmetic, no allocation.
  [[nodiscard]] Algo select(Op op, std::int64_t bytes,
                            const CostProfile& profile,
                            std::int64_t elem_bytes = 4) const;

  /// Parse a knob value; "auto"/"" -> nullopt, unknown -> nullopt with
  /// `ok=false` for callers that want to reject bad config.
  static std::optional<Algo> parse(std::string_view name, bool* ok = nullptr);

 private:
  const AlgoPolicy* policy_ = nullptr;
};

}  // namespace ca::collective
