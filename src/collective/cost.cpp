#include "collective/cost.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ca::collective {

namespace {

/// Pipeline depth of the kRing schedules: enough chunks to amortize per-hop
/// latency, capped so tiny sub-chunks don't re-inflate it.
int ring_pipeline_chunks(std::int64_t bytes) {
  const auto k = bytes / (256 << 10);
  return static_cast<int>(std::clamp<std::int64_t>(k, 2, 16));
}

int ceil_log2(int p) {
  int bits = 0;
  for (int v = p - 1; v > 0; v >>= 1) ++bits;
  return bits;
}

/// Slowest link on the ring over the global ranks behind the given member
/// indices of `ranks` (a block or the leader set).
double member_ring_bottleneck(const sim::Topology& topo,
                              std::span<const int> ranks,
                              const std::vector<int>& members) {
  if (members.size() < 2) return 0.0;
  std::vector<int> g;
  g.reserve(members.size());
  for (int m : members) g.push_back(ranks[static_cast<std::size_t>(m)]);
  return topo.ring_bottleneck(g);
}

/// One intra-block pass (the reduce-scatter or all-gather half): every block
/// runs concurrently, so the phase costs the slowest block.
double intra_pass_time(const CostProfile& prof, double b) {
  double t = 0.0;
  for (const auto& block : prof.blocks) {
    const double m = block.size;
    if (m < 2.0) continue;
    t = std::max(t, (m - 1.0) * (prof.alpha + b / m / block.bottleneck));
  }
  return t;
}

/// The inter-block all-reduce: each block's 1/m share is exchanged across
/// the leader ring (slot j of every block exchanges with slot j of the
/// others; the leader ring's bottleneck link bounds all slots).
double inter_pass_time(const CostProfile& prof, double b) {
  const auto l = static_cast<double>(prof.blocks.size());
  if (prof.blocks.size() < 2) return 0.0;
  const double share = b / static_cast<double>(std::max(prof.min_block, 1));
  return 2.0 * (l - 1.0) *
         (prof.alpha + share / l / prof.leader_bottleneck);
}

double hierarchical_time(Op op, const CostProfile& prof, double b) {
  const double intra = intra_pass_time(prof, b);
  const double inter = inter_pass_time(prof, b);
  switch (op) {
    case Op::kAllReduce:
      return intra + inter + intra;  // RS intra, AR inter, AG intra
    case Op::kReduceScatter:
    case Op::kReduce:
      return intra + inter / 2.0;
    case Op::kAllGather:
    case Op::kBroadcast:
      return inter / 2.0 + intra;
    default:
      return 0.0;  // not selected for these ops
  }
}

/// The store-and-forward ring formulas: kChunked, and the fallback of every
/// other algorithm for the ops it does not model.
double chunked_time(Op op, const CostProfile& prof, double b) {
  const auto p = static_cast<double>(prof.size);
  const double bw = prof.bottleneck;
  const double alpha = prof.alpha;

  switch (op) {
    case Op::kAllReduce:
      // ring: 2(p-1) steps of b/p each
      return 2.0 * (p - 1.0) * (alpha + b / p / bw);
    case Op::kReduceScatter:
    case Op::kAllGather:
      return (p - 1.0) * (alpha + b / p / bw);
    case Op::kBroadcast:
    case Op::kReduce:
      // pipelined ring/chain: latency per hop, payload streams once
      return (p - 1.0) * alpha + b / bw;
    case Op::kAllToAll:
      // p-1 pairwise rounds of b/p each
      return (p - 1.0) * (alpha + b / p / bw);
    case Op::kGather:
    case Op::kScatter:
      // root moves (p-1)/p of the payload through its slowest incident link
      return (p - 1.0) * alpha + (p - 1.0) / p * b / bw;
  }
  return 0.0;
}

}  // namespace

CostProfile make_cost_profile(const sim::Topology& topo,
                              std::span<const int> ranks,
                              const TwoLevelPlan& plan) {
  CostProfile prof;
  prof.size = static_cast<int>(ranks.size());
  prof.alpha = topo.latency();
  if (ranks.size() >= 2) prof.bottleneck = topo.ring_bottleneck(ranks);
  if (plan.viable()) {
    prof.blocks.reserve(plan.blocks.size());
    for (const auto& block : plan.blocks) {
      prof.blocks.push_back({static_cast<double>(block.size()),
                             member_ring_bottleneck(topo, ranks, block)});
    }
    prof.leader_bottleneck = member_ring_bottleneck(topo, ranks, plan.leaders);
    prof.min_block = plan.min_block();
  }
  return prof;
}

double collective_time(Op op, Algo algo, const CostProfile& prof,
                       std::int64_t bytes) {
  const auto p = static_cast<double>(prof.size);
  if (prof.size < 2 || bytes == 0) return 0.0;
  const double alpha = prof.alpha;
  const double bw = prof.bottleneck;
  const double b = static_cast<double>(bytes);

  switch (algo) {
    case Algo::kChunked:
      return chunked_time(op, prof, b);

    case Algo::kRing: {
      const auto k = static_cast<double>(ring_pipeline_chunks(bytes));
      switch (op) {
        case Op::kAllReduce:
          // 2(p-1)+k-1 pipelined sub-steps of b/(p k) each: the hop count of
          // the ring plus the pipeline fill, each sub-chunk streaming while
          // the next arrives.
          return (2.0 * (p - 1.0) + k - 1.0) * (alpha + b / p / k / bw);
        case Op::kReduceScatter:
        case Op::kAllGather:
          return ((p - 1.0) + k - 1.0) * (alpha + b / p / k / bw);
        default:
          return chunked_time(op, prof, b);
      }
    }

    case Algo::kHierarchical:
      if (!prof.viable()) return chunked_time(op, prof, b);
      return hierarchical_time(op, prof, b);

    case Algo::kSingleRoot: {
      // Latency-optimal binary tree; the slowest group link bounds each hop.
      const auto hops = static_cast<double>(ceil_log2(prof.size));
      switch (op) {
        case Op::kAllReduce:
          return 2.0 * hops * (alpha + b / bw);  // reduce tree + bcast tree
        case Op::kBroadcast:
        case Op::kReduce:
          return hops * (alpha + b / bw);
        default:
          return chunked_time(op, prof, b);
      }
    }
  }
  return 0.0;
}

double collective_latency(Op op, Algo algo, const CostProfile& profile,
                          std::int64_t bytes) {
  // Infinitely fast links zero every b / bandwidth term and leave the hops.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  CostProfile lat = profile;
  lat.bottleneck = kInf;
  lat.leader_bottleneck = kInf;
  for (auto& block : lat.blocks) block.bottleneck = kInf;
  return collective_time(op, algo, lat, bytes);
}

double collective_time(Op op, Algo algo, const sim::Topology& topo,
                       std::span<const int> ranks, std::int64_t bytes,
                       const TwoLevelPlan& plan) {
  return collective_time(op, algo, make_cost_profile(topo, ranks, plan),
                         bytes);
}

double p2p_time(const sim::Topology& topo, int src, int dst, std::int64_t bytes) {
  if (src == dst || bytes == 0) return 0.0;
  return topo.latency() + static_cast<double>(bytes) / topo.bandwidth(src, dst);
}

std::int64_t bytes_sent_per_rank(Op op, int group_size, std::int64_t bytes) {
  if (group_size < 2 || bytes == 0) return 0;
  const auto p = static_cast<std::int64_t>(group_size);
  switch (op) {
    case Op::kAllReduce:
      return 2 * (p - 1) * bytes / p;
    case Op::kReduceScatter:
    case Op::kAllGather:
    case Op::kAllToAll:
      return (p - 1) * bytes / p;
    case Op::kBroadcast:
    case Op::kReduce:
    case Op::kGather:
    case Op::kScatter:
      // chain traffic averaged over ranks: total (p-1)*b/p per rank
      return (p - 1) * bytes / p;
  }
  return 0;
}

}  // namespace ca::collective
