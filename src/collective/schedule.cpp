#include "collective/schedule.hpp"

#include <cassert>

namespace ca::collective {

namespace {

CommPhase phase(int p, bool barrier_after) {
  CommPhase ph;
  ph.actions.resize(static_cast<std::size_t>(p));
  ph.barrier_after = barrier_after;
  return ph;
}

void add(CommPhase& ph, int member, CommAction a) {
  ph.actions[static_cast<std::size_t>(member)].push_back(a);
}

/// Owner of chunk c: identity, or the hierarchical slot-major permutation.
int owner_of(const std::vector<int>& perm, int c) {
  return perm.empty() ? c : perm[static_cast<std::size_t>(c)];
}

/// Phase 1 of the reducing schedules: distribute the P ownership chunks of
/// [0, n) over the members per `perm`, each reducing canonically into `where`
/// (arena or out).
CommPhase reduce_chunks_phase(int p, std::int64_t n,
                              const std::vector<int>& perm,
                              CommAction::Kind where, bool scaled) {
  CommPhase ph = phase(p, /*barrier_after=*/true);
  for (int c = 0; c < p; ++c) {
    const auto [lo, hi] = chunk_range(n, c, p);
    if (lo == hi) continue;
    add(ph, owner_of(perm, c),
        {where, lo, lo, hi - lo, /*peer=*/-1, scaled});
  }
  return ph;
}

CommSchedule all_reduce_schedule(Algo algo, int p, std::int64_t n,
                                 const std::vector<int>& perm) {
  CommSchedule s;
  s.arena_elems = n;
  s.check_uniform_counts = true;

  if (algo == Algo::kSingleRoot) {
    // Root folds everything; everyone copies out — a reduce + broadcast,
    // which sidesteps the degenerate empty-ownership-chunk case of n < P.
    CommPhase p1 = phase(p, true);
    add(p1, 0, {CommAction::Kind::kReduceToArena, 0, 0, n, -1, false});
    s.phases.push_back(std::move(p1));
  } else {
    s.phases.push_back(reduce_chunks_phase(
        p, n, algo == Algo::kHierarchical ? perm : std::vector<int>{},
        CommAction::Kind::kReduceToArena, false));
    if (algo == Algo::kHierarchical) {
      // The inter-node exchange boundary: no local data movement (chunk
      // owners already hold globally-reduced chunks), but a distinct
      // rendezvous separates the intra-node and inter-node rounds, exactly
      // where the cost model places the leader exchange.
      s.phases.push_back(phase(p, true));
    }
  }

  // Copy-out phase (the all-gather half), gradient-averaging scale fused in.
  // Only the arena is read, so no trailing barrier is needed.
  CommPhase out = phase(p, /*barrier_after=*/false);
  for (int m = 0; m < p; ++m) {
    add(out, m, {CommAction::Kind::kCopyArenaToOut, 0, 0, n, -1, true});
  }
  s.phases.push_back(std::move(out));
  return s;
}

CommSchedule reduce_schedule(Algo algo, int p, std::int64_t n, int root,
                             const std::vector<int>& perm) {
  CommSchedule s;
  s.arena_elems = n;
  s.check_uniform_counts = true;

  if (algo == Algo::kSingleRoot) {
    CommPhase p1 = phase(p, true);
    add(p1, root, {CommAction::Kind::kReduceToArena, 0, 0, n, -1, false});
    s.phases.push_back(std::move(p1));
  } else {
    s.phases.push_back(reduce_chunks_phase(
        p, n, algo == Algo::kHierarchical ? perm : std::vector<int>{},
        CommAction::Kind::kReduceToArena, false));
  }

  CommPhase out = phase(p, /*barrier_after=*/false);
  add(out, root, {CommAction::Kind::kCopyArenaToOut, 0, 0, n, -1, false});
  s.phases.push_back(std::move(out));
  return s;
}

CommSchedule reduce_scatter_schedule(int p, std::int64_t n_in,
                                     std::int64_t n_out) {
  assert(n_in == n_out * p);
  CommSchedule s;
  s.check_uniform_counts = true;

  // Ownership-chunked by definition: member i produces only its out chunk,
  // straight from the peers' published buffers (no arena). Trailing barrier:
  // peers' in buffers are read until here.
  CommPhase p1 = phase(p, /*barrier_after=*/true);
  for (int m = 0; m < p; ++m) {
    if (n_out == 0) continue;
    add(p1, m,
        {CommAction::Kind::kReduceToOut, m * n_out, 0, n_out, -1, true});
  }
  s.phases.push_back(std::move(p1));
  return s;
}

CommSchedule all_gather_schedule(int p, std::int64_t n_in,
                                 std::int64_t n_out) {
  assert(n_out == n_in * p);
  CommSchedule s;
  s.arena_elems = n_out;
  s.check_uniform_counts = true;

  // Phase 1: deposit my chunk at its group-index offset in the arena.
  CommPhase p1 = phase(p, true);
  for (int m = 0; m < p; ++m) {
    if (n_in == 0) continue;
    add(p1, m, {CommAction::Kind::kCopyInToArena, 0, m * n_in, n_in, -1, false});
  }
  s.phases.push_back(std::move(p1));

  // Phase 2: one contiguous read of the assembled buffer; arena-only reads,
  // so no trailing barrier.
  CommPhase p2 = phase(p, false);
  for (int m = 0; m < p; ++m) {
    if (n_out == 0) continue;
    add(p2, m, {CommAction::Kind::kCopyArenaToOut, 0, 0, n_out, -1, false});
  }
  s.phases.push_back(std::move(p2));
  return s;
}

CommSchedule broadcast_schedule(int p, std::int64_t n, int root) {
  CommSchedule s;
  s.check_uniform_counts = true;

  // Root's buffer is read directly by every other member; trailing barrier
  // because a peer user buffer was read.
  CommPhase p1 = phase(p, /*barrier_after=*/true);
  for (int m = 0; m < p; ++m) {
    if (m == root || n == 0) continue;
    add(p1, m, {CommAction::Kind::kCopyPeerToOut, 0, 0, n, root, false});
  }
  s.phases.push_back(std::move(p1));
  return s;
}

CommSchedule all_to_all_schedule(int p, std::int64_t n) {
  assert(n % p == 0);
  const std::int64_t chunk = n / p;
  CommSchedule s;
  s.check_uniform_counts = true;

  CommPhase p1 = phase(p, /*barrier_after=*/true);
  for (int i = 0; i < p; ++i) {
    for (int m = 0; m < p; ++m) {
      if (chunk == 0) continue;
      // my out chunk m comes from member m's chunk i
      add(p1, i,
          {CommAction::Kind::kCopyPeerToOut, i * chunk, m * chunk, chunk, m,
           false});
    }
  }
  s.phases.push_back(std::move(p1));
  return s;
}

CommSchedule gather_schedule(int p, std::int64_t n_in, int root) {
  CommSchedule s;
  s.check_uniform_counts = true;

  CommPhase p1 = phase(p, /*barrier_after=*/true);
  for (int m = 0; m < p; ++m) {
    if (n_in == 0) continue;
    add(p1, root, {CommAction::Kind::kCopyPeerToOut, 0, m * n_in, n_in, m, false});
  }
  s.phases.push_back(std::move(p1));
  return s;
}

CommSchedule scatter_schedule(int p, std::int64_t n_out, int root) {
  CommSchedule s;

  CommPhase p1 = phase(p, /*barrier_after=*/true);
  for (int m = 0; m < p; ++m) {
    if (n_out == 0) continue;
    add(p1, m,
        {CommAction::Kind::kCopyPeerToOut, m * n_out, 0, n_out, root, false});
  }
  s.phases.push_back(std::move(p1));
  return s;
}

}  // namespace

std::pair<std::int64_t, std::int64_t> chunk_range(std::int64_t n, int idx,
                                                  int p) {
  const auto pp = static_cast<std::int64_t>(p);
  const std::int64_t base = n / pp, rem = n % pp;
  const std::int64_t lo = idx * base + std::min<std::int64_t>(idx, rem);
  return {lo, lo + base + (idx < rem ? 1 : 0)};
}

CommSchedule build_schedule(Op op, Algo algo, int p, std::int64_t n_in,
                            std::int64_t n_out, int root,
                            const std::vector<int>& owner_perm) {
  switch (op) {
    case Op::kAllReduce:
      return all_reduce_schedule(algo, p, n_in, owner_perm);
    case Op::kReduce:
      return reduce_schedule(algo, p, n_in, root, owner_perm);
    case Op::kReduceScatter:
      return reduce_scatter_schedule(p, n_in, n_out);
    case Op::kAllGather:
      return all_gather_schedule(p, n_in, n_out);
    case Op::kBroadcast:
      return broadcast_schedule(p, n_in, root);
    case Op::kAllToAll:
      return all_to_all_schedule(p, n_in);
    case Op::kGather:
      return gather_schedule(p, n_in, root);
    case Op::kScatter:
      return scatter_schedule(p, n_out, root);
  }
  assert(false && "unknown op");
  return {};
}

}  // namespace ca::collective
