#pragma once

#include <cstdint>
#include <vector>

#include "collective/algo.hpp"
#include "collective/cost.hpp"

namespace ca::collective {

/// One data-plane action performed by one group member during a schedule
/// phase. Offsets are in elements; `scaled` applies the call's fused scale
/// factor (gradient averaging) during the write.
///
/// The reducing kinds always fold *all* members' published buffers in
/// ascending member order — the canonical association — regardless of which
/// member executes the action or under which algorithm. This is the invariant
/// that makes every algorithm bit-identical to the serial oracle and to each
/// other; the algorithm only decides who computes what, when, and what the
/// modeled cost is.
struct CommAction {
  enum class Kind : std::uint8_t {
    kReduceToArena,   ///< arena[dst..) = canonical sum of members' buf[src..)
    kReduceToOut,     ///< out[dst..)   = canonical sum of members' buf[src..)
    kCopyArenaToOut,  ///< out[dst..)   = arena[src..)
    kCopyInToArena,   ///< arena[dst..) = my published buf[src..)
    kCopyPeerToOut,   ///< out[dst..)   = member `peer`'s published buf[src..)
  };
  Kind kind;
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::int64_t len = 0;
  int peer = -1;        ///< kCopyPeerToOut only
  bool scaled = false;  ///< apply the call's scale during the write
};

/// One rendezvous phase: what every member does between two barriers.
struct CommPhase {
  /// actions[i] = the actions member i executes during this phase.
  std::vector<std::vector<CommAction>> actions;
  /// Whether a barrier separates this phase from what follows. The last
  /// phase's flag is meaningful too: false when the phase only reads the
  /// arena (the next op's arena writes are gated behind its own publish
  /// rendezvous), true when it reads peer user buffers (a member may mutate
  /// its buffer as soon as the call returns).
  bool barrier_after = true;
};

/// A compiled collective: the explicit step list the schedule engine
/// executes. Offsets and counts are in elements, so one schedule serves
/// every wire dtype (the modeled bytes come from modeled_bytes, not from
/// here). Built once per (op, algo, sizes, root) and cached per member;
/// execution allocates nothing.
struct CommSchedule {
  std::int64_t arena_elems = 0;  ///< scratch requirement; 0 = arena untouched
  bool check_uniform_counts = false;  ///< assert every member published n_in
  std::vector<CommPhase> phases;
};

/// Compile one collective into a schedule. `p` is the group size; `n_in` /
/// `n_out` follow each op's buffer convention (all_reduce: n_in = n_out =
/// element count; reduce_scatter: n_in = P * n_out; all_gather: n_out =
/// P * n_in; rooted ops: n_in = buffer elements). `owner_perm` is the
/// hierarchical chunk-ownership permutation (perm[c] = owning member of chunk
/// c); pass an empty vector for identity. Only all_reduce and reduce read
/// `algo` (it decides which member folds which chunk); the other ops move
/// the same elements under every algorithm, which changes only their price.
CommSchedule build_schedule(Op op, Algo algo, int p, std::int64_t n_in,
                            std::int64_t n_out, int root,
                            const std::vector<int>& owner_perm);

/// [begin, end) of ownership chunk `idx` of an n-element buffer: near-equal
/// contiguous split, remainder spread over low indices. (Shared with the
/// Group tests; the schedule builders and the executor must agree on it.)
std::pair<std::int64_t, std::int64_t> chunk_range(std::int64_t n, int idx,
                                                  int p);

}  // namespace ca::collective
