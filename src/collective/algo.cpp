#include "collective/algo.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "collective/cost.hpp"

namespace ca::collective {

namespace {
/// Below this payload the reducing collectives go single-root (latency-bound
/// regime; also the floor that fixes the n < P empty-ownership-chunk case).
constexpr std::int64_t kSmallMaxBytes = 1024;
/// Hierarchical pays two extra phase boundaries; only worth it once the
/// bandwidth term dominates.
constexpr std::int64_t kHierMinBytes = 64 << 10;
/// Pipelined-ring chunking only amortizes latency on genuinely large buffers.
constexpr std::int64_t kRingMinBytes = 1 << 20;

bool reducing_or_rooted(Op op) {
  return op == Op::kAllReduce || op == Op::kReduce || op == Op::kBroadcast;
}

bool schedule_selectable(Op op) {
  switch (op) {
    case Op::kAllReduce:
    case Op::kReduceScatter:
    case Op::kAllGather:
    case Op::kBroadcast:
    case Op::kReduce:
      return true;
    default:
      return false;  // gather/scatter/all_to_all stay on the direct plan
  }
}
}  // namespace

int TwoLevelPlan::min_block() const {
  int m = blocks.empty() ? 0 : static_cast<int>(blocks.front().size());
  for (const auto& b : blocks) m = std::min(m, static_cast<int>(b.size()));
  return m;
}

int TwoLevelPlan::max_block() const {
  int m = 0;
  for (const auto& b : blocks) m = std::max(m, static_cast<int>(b.size()));
  return m;
}

std::vector<int> TwoLevelPlan::owner_permutation() const {
  std::vector<int> perm;
  for (int slot = 0; slot < max_block(); ++slot) {
    for (const auto& block : blocks) {
      if (slot < static_cast<int>(block.size())) {
        perm.push_back(block[static_cast<std::size_t>(slot)]);
      }
    }
  }
  return perm;
}

TwoLevelPlan plan_two_level(const sim::Topology& topo,
                            std::span<const int> ranks) {
  TwoLevelPlan plan;
  const int p = static_cast<int>(ranks.size());
  if (p < 2) return plan;

  // Real node partition first: member i goes to the block of its device's
  // node. Blocks keyed (and therefore ordered) by node index.
  std::map<int, std::vector<int>> by_node;
  for (int i = 0; i < p; ++i) {
    by_node[topo.node_of(ranks[static_cast<std::size_t>(i)])].push_back(i);
  }
  int max_block = 0;
  for (const auto& [node, members] : by_node) {
    max_block = std::max(max_block, static_cast<int>(members.size()));
  }
  if (by_node.size() >= 2 && max_block >= 2) {
    for (auto& [node, members] : by_node) {
      plan.leaders.push_back(members.front());
      plan.blocks.push_back(std::move(members));
    }
    plan.by_node = true;
    return plan;
  }

  // Flat fabric (one GPU per node, e.g. System IV): contiguous virtual
  // blocks of ~sqrt(P) members. Same aggregate bandwidth, far fewer hops on
  // the latency-critical path.
  if (topo.gpus_per_node() == 1 && p >= 8) {
    const int side = static_cast<int>(std::lround(std::sqrt(static_cast<double>(p))));
    for (int lo = 0; lo < p; lo += side) {
      std::vector<int> members;
      for (int i = lo; i < std::min(p, lo + side); ++i) members.push_back(i);
      plan.leaders.push_back(members.front());
      plan.blocks.push_back(std::move(members));
    }
  }
  return plan;
}

std::optional<Algo> AlgoSelector::parse(std::string_view name, bool* ok) {
  if (ok != nullptr) *ok = true;
  if (name.empty() || name == "auto") return std::nullopt;
  if (name == "chunked") return Algo::kChunked;
  if (name == "ring") return Algo::kRing;
  if (name == "hierarchical") return Algo::kHierarchical;
  if (name == "single_root") return Algo::kSingleRoot;
  if (ok != nullptr) *ok = false;
  return std::nullopt;
}

Algo AlgoSelector::select(Op op, std::int64_t bytes,
                          const sim::Topology& topo,
                          std::span<const int> ranks,
                          const TwoLevelPlan& plan,
                          std::int64_t elem_bytes) const {
  return select(op, bytes, make_cost_profile(topo, ranks, plan), elem_bytes);
}

Algo AlgoSelector::select(Op op, std::int64_t bytes,
                          const CostProfile& profile,
                          std::int64_t elem_bytes) const {
  const int group_size = profile.size;
  if (!schedule_selectable(op) || group_size < 2) return Algo::kChunked;

  if (policy_ != nullptr && policy_->forced) {
    const Algo forced = *policy_->forced;
    return forced == Algo::kHierarchical && !profile.viable() ? Algo::kChunked
                                                               : forced;
  }

  // elem_bytes * P is the n < P floor in *bytes* for this wire width: a
  // 2-byte wire halves the byte count of the same element count, so pricing
  // the floor with a hardcoded 4 would mis-chunk small half-wire messages.
  if (reducing_or_rooted(op) &&
      bytes < std::max<std::int64_t>(kSmallMaxBytes, elem_bytes * group_size)) {
    return Algo::kSingleRoot;
  }

  // Cost-ranked choice among the gated candidates. The inputs (op, bytes,
  // topology, member span, plan) are identical on every member, so each
  // computes the same modeled times and branches identically — the property
  // the symmetric schedule compilation relies on. Strict < keeps ties on the
  // first candidate, making the pick order-deterministic.
  Algo best = Algo::kChunked;
  double best_t = collective_time(op, Algo::kChunked, profile, bytes);
  const auto consider = [&](Algo a) {
    const double t = collective_time(op, a, profile, bytes);
    if (t < best_t) {
      best = a;
      best_t = t;
    }
  };
  if (profile.viable() && bytes >= kHierMinBytes) {
    consider(Algo::kHierarchical);
  }
  if (bytes >= kRingMinBytes) consider(Algo::kRing);
  return best;
}

}  // namespace ca::collective
