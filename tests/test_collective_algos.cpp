// Tests for the pluggable collective-algorithm layer: the two-level topology
// plan, the AlgoSelector decision table, algorithm-aware costs, and — the
// load-bearing contract — bit-identical results for every algorithm ×
// {blocking, async} × degenerate payload sizes against the serial oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "collective/algo.hpp"
#include "collective/backend.hpp"
#include "collective/cost.hpp"
#include "collective/schedule.hpp"
#include "core/context.hpp"
#include "core/knobs.hpp"
#include "scoped_env.hpp"
#include "sim/cluster.hpp"

namespace col = ca::collective;
namespace core = ca::core;
namespace sim = ca::sim;

namespace {

struct Fixture {
  explicit Fixture(sim::Topology topo) : cluster(std::move(topo)), backend(cluster) {}
  sim::Cluster cluster;
  col::Backend backend;
};

/// The canonical serial oracle: ascending-rank float fold, then scale — the
/// exact association every schedule's reducing actions use.
std::vector<float> oracle_all_reduce(const std::vector<std::vector<float>>& bufs,
                                     float scale) {
  std::vector<float> out(bufs.front().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    float acc = bufs[0][i];
    for (std::size_t m = 1; m < bufs.size(); ++m) acc += bufs[m][i];
    out[i] = acc * scale;
  }
  return out;
}

/// Rank r's deterministic test payload (irrational-ish values so float
/// reassociation would actually change bits).
std::vector<float> payload(int rank, std::int64_t n) {
  std::vector<float> buf(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    buf[static_cast<std::size_t>(i)] =
        std::sin(0.37f * static_cast<float>(i + 1)) *
        (1.0f + 0.13f * static_cast<float>(rank));
  }
  return buf;
}

constexpr col::Algo kAllAlgos[] = {
    col::Algo::kChunked, col::Algo::kRing, col::Algo::kHierarchical,
    col::Algo::kSingleRoot};

}  // namespace

// ---- two-level plan ---------------------------------------------------------

TEST(TwoLevelPlan, FollowsNodesOnMultiNodeTopology) {
  const auto topo = sim::Topology::system_iii(4);  // 4 nodes x 4 GPUs
  std::vector<int> ranks(16);
  std::iota(ranks.begin(), ranks.end(), 0);
  const auto plan = col::plan_two_level(topo, ranks);
  ASSERT_TRUE(plan.viable());
  EXPECT_TRUE(plan.by_node);
  ASSERT_EQ(plan.num_blocks(), 4);
  EXPECT_EQ(plan.min_block(), 4);
  EXPECT_EQ(plan.max_block(), 4);
  EXPECT_EQ(plan.leaders, (std::vector<int>{0, 4, 8, 12}));
  // Slot-major owner permutation is a permutation of 0..15.
  auto perm = plan.owner_permutation();
  ASSERT_EQ(perm.size(), 16u);
  std::vector<int> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, ranks);
  EXPECT_EQ(perm[0], 0);  // slot 0: the leaders, in block order
  EXPECT_EQ(perm[1], 4);
}

TEST(TwoLevelPlan, NotViableOnSingleNode) {
  const auto topo = sim::Topology::system_i();  // one 8-GPU node
  std::vector<int> ranks(8);
  std::iota(ranks.begin(), ranks.end(), 0);
  EXPECT_FALSE(col::plan_two_level(topo, ranks).viable());
}

TEST(TwoLevelPlan, NotViableOnUniformTestTopology) {
  const auto topo = sim::Topology::uniform(8, 100e9);
  std::vector<int> ranks(8);
  std::iota(ranks.begin(), ranks.end(), 0);
  EXPECT_FALSE(col::plan_two_level(topo, ranks).viable());
}

TEST(TwoLevelPlan, VirtualSqrtBlocksOnFlatFabric) {
  const auto topo = sim::Topology::system_iv(16);  // 16 nodes x 1 GPU
  std::vector<int> ranks(16);
  std::iota(ranks.begin(), ranks.end(), 0);
  const auto plan = col::plan_two_level(topo, ranks);
  ASSERT_TRUE(plan.viable());
  EXPECT_FALSE(plan.by_node);
  EXPECT_EQ(plan.num_blocks(), 4);  // ~sqrt(16) contiguous blocks
  EXPECT_EQ(plan.min_block(), 4);
}

TEST(TwoLevelPlan, SubsetOfNodesUsesOnlyThoseNodes) {
  const auto topo = sim::Topology::system_iii(2);  // 8 devices, 2 nodes
  // A pure-DP group over devices {0, 1, 4, 5}: 2 per node.
  const std::vector<int> ranks{0, 1, 4, 5};
  const auto plan = col::plan_two_level(topo, ranks);
  ASSERT_TRUE(plan.viable());
  EXPECT_TRUE(plan.by_node);
  ASSERT_EQ(plan.num_blocks(), 2);
  // Blocks hold *member indices* into ranks, not global ranks.
  EXPECT_EQ(plan.blocks[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.blocks[1], (std::vector<int>{2, 3}));
}

// ---- selector ---------------------------------------------------------------

TEST(AlgoSelector, DecisionTable) {
  const auto multi = sim::Topology::system_iii(4);
  std::vector<int> ranks(16);
  std::iota(ranks.begin(), ranks.end(), 0);
  const auto plan = col::plan_two_level(multi, ranks);
  col::AlgoSelector sel;

  // Small reducing messages: single-root (also the n < P degenerate fix).
  EXPECT_EQ(sel.select(col::Op::kAllReduce, 512, multi, ranks, plan),
            col::Algo::kSingleRoot);
  // Gradient-bucket-size messages on a node-spanning group: hierarchical
  // wins the cost race. (At 64 MiB on this small 4-node machine the
  // pipelined ring overtakes it — the same crossover the System IV
  // regression below pins.)
  EXPECT_EQ(sel.select(col::Op::kAllReduce, 4 << 20, multi, ranks, plan),
            col::Algo::kHierarchical);
  EXPECT_EQ(sel.select(col::Op::kReduceScatter, 1 << 20, multi, ranks, plan),
            col::Algo::kHierarchical);
  // Mid-size: no other candidate clears its byte gate; chunked.
  EXPECT_EQ(sel.select(col::Op::kAllReduce, 4096, multi, ranks, plan),
            col::Algo::kChunked);
  // Non-viable plan, large message: pipelined ring beats store-and-forward.
  const col::TwoLevelPlan flat;
  EXPECT_EQ(sel.select(col::Op::kAllReduce, 64 << 20, multi, ranks, flat),
            col::Algo::kRing);
  // Ops without schedule freedom never leave chunked.
  EXPECT_EQ(sel.select(col::Op::kAllToAll, 64 << 20, multi, ranks, plan),
            col::Algo::kChunked);
  EXPECT_EQ(sel.select(col::Op::kGather, 64 << 20, multi, ranks, plan),
            col::Algo::kChunked);
}

TEST(AlgoSelector, PolicyForcesAndHierarchicalDegrades) {
  const auto topo = sim::Topology::uniform(8, 100e9);
  std::vector<int> ranks(8);
  std::iota(ranks.begin(), ranks.end(), 0);
  col::AlgoPolicy policy;
  policy.forced = col::Algo::kRing;
  col::AlgoSelector sel(&policy);
  const col::TwoLevelPlan flat;
  EXPECT_EQ(sel.select(col::Op::kAllReduce, 64, topo, ranks, flat),
            col::Algo::kRing);

  // Forced hierarchical silently degrades when the plan is not viable.
  policy.forced = col::Algo::kHierarchical;
  EXPECT_EQ(sel.select(col::Op::kAllReduce, 64 << 20, topo, ranks, flat),
            col::Algo::kChunked);
}

TEST(AlgoSelector, SystemIvCrossoverPicksRingAt64MiB) {
  // Regression for the crossover a static threshold table missed: on the
  // flat System IV fabric the sqrt-P virtual-block hierarchy is cheapest at
  // gradient-bucket sizes, but by 64 MiB the pipelined ring overtakes it
  // (the leader ring's inter-block exchange stops paying for itself). The
  // cost-ranked selector must land on each side of the crossover.
  const auto topo = sim::Topology::system_iv(64);
  std::vector<int> ranks(64);
  std::iota(ranks.begin(), ranks.end(), 0);
  const auto plan = col::plan_two_level(topo, ranks);
  ASSERT_TRUE(plan.viable());

  const auto t = [&](col::Algo a, std::int64_t bytes) {
    return col::collective_time(col::Op::kAllReduce, a, topo, ranks, bytes,
                                plan);
  };
  ASSERT_LT(t(col::Algo::kHierarchical, 4 << 20), t(col::Algo::kRing, 4 << 20));
  ASSERT_LT(t(col::Algo::kRing, 64 << 20),
            t(col::Algo::kHierarchical, 64 << 20));

  col::AlgoSelector sel;
  EXPECT_EQ(sel.select(col::Op::kAllReduce, 4 << 20, topo, ranks, plan),
            col::Algo::kHierarchical);
  EXPECT_EQ(sel.select(col::Op::kAllReduce, 64 << 20, topo, ranks, plan),
            col::Algo::kRing);
}

TEST(AlgoSelector, ParsesKnobValues) {
  bool ok = false;
  EXPECT_EQ(col::AlgoSelector::parse("auto", &ok), std::nullopt);
  EXPECT_TRUE(ok);
  EXPECT_EQ(col::AlgoSelector::parse("hierarchical", &ok),
            col::Algo::kHierarchical);
  EXPECT_TRUE(ok);
  EXPECT_EQ(col::AlgoSelector::parse("ring", &ok), col::Algo::kRing);
  EXPECT_EQ(col::AlgoSelector::parse("single_root", &ok),
            col::Algo::kSingleRoot);
  EXPECT_EQ(col::AlgoSelector::parse("chunked", &ok), col::Algo::kChunked);
  EXPECT_EQ(col::AlgoSelector::parse("nonsense", &ok), std::nullopt);
  EXPECT_FALSE(ok);
}

TEST(AlgoSelector, EnvGarbageThrowsNamingValueAndChoices) {
  // The CA_COLLECTIVE_ALGO value a group built now would be forced to.
  const auto env_algo = [](const char* value) {
    ScopedEnv e("CA_COLLECTIVE_ALGO", value);
    return col::AlgoSelector::parse(
        core::Knobs::resolve().text(core::Knob::kCollectiveAlgo));
  };
  EXPECT_EQ(env_algo(nullptr), std::nullopt);
  EXPECT_EQ(env_algo(""), std::nullopt);
  EXPECT_EQ(env_algo("auto"), std::nullopt);
  EXPECT_EQ(env_algo("ring"), col::Algo::kRing);
  EXPECT_EQ(env_algo("single_root"), col::Algo::kSingleRoot);
  try {
    (void)env_algo("hierarchal");
    FAIL() << "garbage CA_COLLECTIVE_ALGO accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CA_COLLECTIVE_ALGO"), std::string::npos) << what;
    EXPECT_NE(what.find("'hierarchal'"), std::string::npos) << what;
    EXPECT_NE(what.find("auto|chunked|ring|hierarchical|single_root"),
              std::string::npos)
        << what;
  }
  // Groups check the value when they are built, before any rank runs.
  ScopedEnv e("CA_COLLECTIVE_ALGO", "hierarchal");
  sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
  EXPECT_THROW(col::Backend backend(cluster), std::invalid_argument);
}

TEST(AlgoSelector, GroupAutoPicksHierarchicalForLargeDpSync) {
  // The headline scenario: a pure-DP group spanning System III nodes must
  // auto-select hierarchical for gradient-sized messages.
  Fixture f(sim::Topology::system_iii(2));
  auto& world = f.backend.world();
  EXPECT_EQ(world.algo_for(col::Op::kAllReduce, 16 << 20),
            col::Algo::kHierarchical);
  EXPECT_EQ(world.algo_for(col::Op::kAllReduce, 256), col::Algo::kSingleRoot);
}

// ---- schedule IR ------------------------------------------------------------

TEST(Schedule, ChunkRangeCoversBufferExactly) {
  for (const std::int64_t n : {0LL, 1LL, 5LL, 7LL, 64LL, 1000LL}) {
    for (const int p : {1, 2, 4, 8}) {
      std::int64_t covered = 0;
      std::int64_t prev_end = 0;
      for (int i = 0; i < p; ++i) {
        const auto [lo, hi] = col::chunk_range(n, i, p);
        EXPECT_EQ(lo, prev_end);
        EXPECT_LE(lo, hi);
        covered += hi - lo;
        prev_end = hi;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(Schedule, HierarchicalAllReduceHasInterNodePhaseBoundary) {
  const auto chunked = col::build_schedule(col::Op::kAllReduce,
                                           col::Algo::kChunked, 8, 1024, 1024,
                                           0, {});
  const auto hier = col::build_schedule(col::Op::kAllReduce,
                                        col::Algo::kHierarchical, 8, 1024,
                                        1024, 0, {4, 0, 5, 1, 6, 2, 7, 3});
  EXPECT_EQ(chunked.phases.size(), 2u);
  EXPECT_EQ(hier.phases.size(), 3u);  // reduce | inter-node boundary | copy-out
  EXPECT_FALSE(chunked.phases.back().barrier_after);  // arena-only final read
}

TEST(Schedule, SingleRootAllReduceHasNoEmptyChunkProblem) {
  // n < P: the chunked schedule would hand most members empty chunks; the
  // single-root schedule gives the root one n-length reduce instead.
  const auto s = col::build_schedule(col::Op::kAllReduce,
                                     col::Algo::kSingleRoot, 8, 3, 3, 0, {});
  std::size_t total_actions = 0;
  for (const auto& ph : s.phases) {
    for (const auto& acts : ph.actions) total_actions += acts.size();
  }
  // 1 root reduce + 8 copy-outs.
  EXPECT_EQ(total_actions, 9u);
}

// ---- bit-identicality matrix ------------------------------------------------

// Every algorithm × {blocking, async} × awkward sizes (0, 1, n < P,
// n % P != 0, large) must reproduce the serial oracle bit for bit on a
// multi-node topology where hierarchical is viable.
TEST(AlgoMatrix, AllReduceBitIdenticalToOracleEveryAlgorithm) {
  constexpr int kWorld = 8;
  const float scale = 1.0f / 3.0f;
  for (const auto algo : kAllAlgos) {
    for (const std::int64_t n : {0LL, 1LL, 5LL, 37LL, 4096LL}) {
      Fixture f(sim::Topology::system_iii(2));
      f.backend.set_forced_algo(algo);
      std::vector<std::vector<float>> bufs;
      for (int r = 0; r < kWorld; ++r) bufs.push_back(payload(r, n));
      const auto want = oracle_all_reduce(bufs, scale);

      f.cluster.run([&](int rank) {
        f.backend.world().all_reduce(rank, bufs[static_cast<std::size_t>(rank)],
                                     scale);
      });
      for (int r = 0; r < kWorld; ++r) {
        for (std::int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(bufs[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                    want[static_cast<std::size_t>(i)])
              << "algo=" << col::algo_name(algo) << " n=" << n << " rank=" << r
              << " i=" << i;
        }
      }
    }
  }
}

TEST(AlgoMatrix, AsyncAllReduceBitIdenticalEveryAlgorithm) {
  constexpr int kWorld = 8;
  const float scale = 0.125f;
  for (const auto algo : kAllAlgos) {
    for (const std::int64_t n : {1LL, 5LL, 37LL, 4096LL}) {
      Fixture f(sim::Topology::system_iii(2));
      f.backend.set_forced_algo(algo);
      std::vector<std::vector<float>> bufs;
      for (int r = 0; r < kWorld; ++r) bufs.push_back(payload(r, n));
      const auto want = oracle_all_reduce(bufs, scale);

      f.cluster.run([&](int rank) {
        auto h = f.backend.world().all_reduce_async(
            rank, bufs[static_cast<std::size_t>(rank)], scale);
        f.cluster.device(rank).compute_fp32(1.0e9);  // overlap some compute
        h.wait();
      });
      for (int r = 0; r < kWorld; ++r) {
        for (std::int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(bufs[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                    want[static_cast<std::size_t>(i)])
              << "algo=" << col::algo_name(algo) << " n=" << n << " rank=" << r;
        }
      }
    }
  }
}

TEST(AlgoMatrix, ReduceScatterAndAllGatherBitIdenticalEveryAlgorithm) {
  constexpr int kWorld = 8;
  const std::int64_t n_out = 37;  // non-divisible-feeling odd chunk size
  const std::int64_t n_in = n_out * kWorld;
  for (const auto algo : kAllAlgos) {
    Fixture f(sim::Topology::system_iii(2));
    f.backend.set_forced_algo(algo);
    std::vector<std::vector<float>> ins;
    for (int r = 0; r < kWorld; ++r) ins.push_back(payload(r, n_in));
    const auto sum = oracle_all_reduce(ins, 0.25f);

    std::vector<std::vector<float>> rs_out(
        kWorld, std::vector<float>(static_cast<std::size_t>(n_out)));
    std::vector<std::vector<float>> ag_out(
        kWorld, std::vector<float>(static_cast<std::size_t>(n_in)));
    f.cluster.run([&](int rank) {
      const auto u = static_cast<std::size_t>(rank);
      f.backend.world().reduce_scatter(rank, ins[u], rs_out[u], 0.25f);
      f.backend.world().all_gather(
          rank, std::span<const float>(ins[u]).subspan(0, n_out), ag_out[u]);
    });
    for (int r = 0; r < kWorld; ++r) {
      for (std::int64_t i = 0; i < n_out; ++i) {
        ASSERT_EQ(rs_out[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                  sum[static_cast<std::size_t>(r * n_out + i)])
            << "algo=" << col::algo_name(algo);
      }
      for (int m = 0; m < kWorld; ++m) {
        for (std::int64_t i = 0; i < n_out; ++i) {
          ASSERT_EQ(
              ag_out[static_cast<std::size_t>(r)]
                    [static_cast<std::size_t>(m * n_out + i)],
              ins[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)])
              << "algo=" << col::algo_name(algo);
        }
      }
    }
  }
}

TEST(AlgoMatrix, BroadcastAndReduceMatchEveryAlgorithm) {
  constexpr int kWorld = 8;
  const std::int64_t n = 37;
  for (const auto algo : kAllAlgos) {
    Fixture f(sim::Topology::system_iii(2));
    f.backend.set_forced_algo(algo);
    std::vector<std::vector<float>> bc(kWorld,
                                       std::vector<float>(static_cast<std::size_t>(n)));
    bc[3] = payload(3, n);
    std::vector<std::vector<float>> rd;
    for (int r = 0; r < kWorld; ++r) rd.push_back(payload(r + 11, n));
    const auto rd_want = oracle_all_reduce(rd, 1.0f);

    f.cluster.run([&](int rank) {
      const auto u = static_cast<std::size_t>(rank);
      f.backend.world().broadcast(rank, bc[u], /*root=*/3);
      f.backend.world().reduce(rank, rd[u], /*root=*/5);
    });
    for (int r = 0; r < kWorld; ++r) {
      EXPECT_EQ(bc[static_cast<std::size_t>(r)], bc[3])
          << "algo=" << col::algo_name(algo);
    }
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(rd[5][static_cast<std::size_t>(i)],
                rd_want[static_cast<std::size_t>(i)])
          << "algo=" << col::algo_name(algo);
    }
  }
}

TEST(AlgoMatrix, RepeatedRunsAreDeterministic) {
  constexpr int kWorld = 8;
  const std::int64_t n = 1000;
  std::vector<float> first;
  for (int repeat = 0; repeat < 2; ++repeat) {
    Fixture f(sim::Topology::system_iii(2));
    std::vector<std::vector<float>> bufs;
    for (int r = 0; r < kWorld; ++r) bufs.push_back(payload(r, n));
    f.cluster.run([&](int rank) {
      f.backend.world().all_reduce(rank, bufs[static_cast<std::size_t>(rank)],
                                   0.5f);
    });
    if (repeat == 0) {
      first = bufs[0];
    } else {
      EXPECT_EQ(bufs[0], first);
    }
  }
}

// ---- n < P regression (the degenerate-chunk fast path) ----------------------

TEST(Group, TinyAllReduceSelectsSingleRootAndSumsCorrectly) {
  constexpr int kWorld = 8;
  Fixture f(sim::Topology::uniform(kWorld, 100e9));
  auto& world = f.backend.world();
  // 2 floats over 8 ranks: n < P leaves 6 members without an ownership
  // chunk; the selector must route this to single-root.
  EXPECT_EQ(world.algo_for(col::Op::kAllReduce, 8), col::Algo::kSingleRoot);

  std::vector<std::vector<float>> bufs(kWorld, std::vector<float>(2));
  for (int r = 0; r < kWorld; ++r) {
    bufs[static_cast<std::size_t>(r)] = {static_cast<float>(r), 1.0f};
  }
  f.cluster.run([&](int rank) {
    world.all_reduce(rank, bufs[static_cast<std::size_t>(rank)]);
  });
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)],
              (std::vector<float>{28.0f, 8.0f}));
  }
}

// ---- cost model -------------------------------------------------------------

TEST(HierarchicalCost, BeatsChunkedForLargeMessagesOnSystemIii) {
  const auto topo = sim::Topology::system_iii(16);
  std::vector<int> ranks(64);
  std::iota(ranks.begin(), ranks.end(), 0);
  const auto plan = col::plan_two_level(topo, ranks);
  ASSERT_TRUE(plan.viable());
  const std::int64_t bytes = 64 << 20;
  const double chunked = col::collective_time(col::Op::kAllReduce,
                                              col::Algo::kChunked, topo, ranks,
                                              bytes, plan);
  const double hier = col::collective_time(col::Op::kAllReduce,
                                           col::Algo::kHierarchical, topo,
                                           ranks, bytes, plan);
  EXPECT_LT(hier, chunked);
}

TEST(HierarchicalCost, BeatsChunkedOnFlatSystemIvViaLatency) {
  const auto topo = sim::Topology::system_iv(64);
  std::vector<int> ranks(64);
  std::iota(ranks.begin(), ranks.end(), 0);
  const auto plan = col::plan_two_level(topo, ranks);
  ASSERT_TRUE(plan.viable());
  const std::int64_t bytes = 64 << 20;
  const double chunked = col::collective_time(col::Op::kAllReduce,
                                              col::Algo::kChunked, topo, ranks,
                                              bytes, plan);
  const double hier = col::collective_time(col::Op::kAllReduce,
                                           col::Algo::kHierarchical, topo,
                                           ranks, bytes, plan);
  EXPECT_LT(hier, chunked);
}

namespace {

/// Independent oracle for the cost model: the formulas re-derived from the
/// topology on every call, with no profile in between (each bottleneck is a
/// fresh ring walk over the global ranks).
double oracle_time(col::Op op, col::Algo algo, const sim::Topology& topo,
                   const std::vector<int>& ranks, std::int64_t bytes,
                   const col::TwoLevelPlan& plan) {
  const auto p = static_cast<double>(ranks.size());
  if (ranks.size() < 2 || bytes == 0) return 0.0;
  const double alpha = topo.latency();
  const double b = static_cast<double>(bytes);
  const double bw = topo.ring_bottleneck(ranks);
  const auto ring_of = [&](const std::vector<int>& members) {
    std::vector<int> g;
    for (int m : members) g.push_back(ranks[static_cast<std::size_t>(m)]);
    return topo.ring_bottleneck(g);
  };
  const auto chunked = [&] {
    switch (op) {
      case col::Op::kAllReduce:
        return 2.0 * (p - 1.0) * (alpha + b / p / bw);
      case col::Op::kReduceScatter:
      case col::Op::kAllGather:
      case col::Op::kAllToAll:
        return (p - 1.0) * (alpha + b / p / bw);
      case col::Op::kBroadcast:
      case col::Op::kReduce:
        return (p - 1.0) * alpha + b / bw;
      case col::Op::kGather:
      case col::Op::kScatter:
        return (p - 1.0) * alpha + (p - 1.0) / p * b / bw;
    }
    return 0.0;
  };
  switch (algo) {
    case col::Algo::kChunked:
      return chunked();
    case col::Algo::kRing: {
      const auto k = static_cast<double>(
          std::clamp<std::int64_t>(bytes / (256 << 10), 2, 16));
      if (op == col::Op::kAllReduce) {
        return (2.0 * (p - 1.0) + k - 1.0) * (alpha + b / p / k / bw);
      }
      if (op == col::Op::kReduceScatter || op == col::Op::kAllGather) {
        return ((p - 1.0) + k - 1.0) * (alpha + b / p / k / bw);
      }
      return chunked();
    }
    case col::Algo::kHierarchical: {
      if (!plan.viable()) return chunked();
      double intra = 0.0;
      for (const auto& block : plan.blocks) {
        if (block.size() < 2) continue;
        const auto m = static_cast<double>(block.size());
        intra = std::max(intra, (m - 1.0) * (alpha + b / m / ring_of(block)));
      }
      const auto l = static_cast<double>(plan.num_blocks());
      const double share =
          b / static_cast<double>(std::max(plan.min_block(), 1));
      const double inter =
          2.0 * (l - 1.0) * (alpha + share / l / ring_of(plan.leaders));
      switch (op) {
        case col::Op::kAllReduce:
          return intra + inter + intra;
        case col::Op::kReduceScatter:
        case col::Op::kReduce:
          return intra + inter / 2.0;
        case col::Op::kAllGather:
        case col::Op::kBroadcast:
          return inter / 2.0 + intra;
        default:
          return 0.0;
      }
    }
    case col::Algo::kSingleRoot: {
      int hops = 0;
      for (int v = static_cast<int>(ranks.size()) - 1; v > 0; v >>= 1) ++hops;
      const auto h = static_cast<double>(hops);
      if (op == col::Op::kAllReduce) return 2.0 * h * (alpha + b / bw);
      if (op == col::Op::kBroadcast || op == col::Op::kReduce) {
        return h * (alpha + b / bw);
      }
      return chunked();
    }
  }
  return 0.0;
}

constexpr col::Op kAllOps[] = {
    col::Op::kAllReduce, col::Op::kReduceScatter, col::Op::kAllGather,
    col::Op::kBroadcast, col::Op::kReduce,        col::Op::kAllToAll,
    col::Op::kGather,    col::Op::kScatter};

}  // namespace

TEST(CostProfile, GroupPricesBitIdenticalToFreeFormulaAndOracle) {
  struct Case {
    const char* label;
    sim::Topology topo;
    std::vector<int> ranks;
  };
  const auto iota = [](int lo, int n, int stride) {
    std::vector<int> r;
    for (int i = 0; i < n; ++i) r.push_back(lo + i * stride);
    return r;
  };
  const std::vector<Case> cases{
      {"I contiguous", sim::Topology::system_i(), iota(0, 8, 1)},
      {"I half", sim::Topology::system_i(), iota(4, 4, 1)},
      {"II contiguous", sim::Topology::system_ii(), iota(0, 8, 1)},
      {"II strided", sim::Topology::system_ii(), iota(1, 4, 2)},
      {"III by-node", sim::Topology::system_iii(4), iota(0, 16, 1)},
      {"III strided col", sim::Topology::system_iii(4), iota(1, 8, 2)},
      {"III one per node", sim::Topology::system_iii(4), iota(2, 4, 4)},
      {"IV sqrt blocks", sim::Topology::system_iv(16), iota(0, 16, 1)},
      {"IV ragged blocks", sim::Topology::system_iv(16), iota(3, 10, 1)},
      {"IV strided", sim::Topology::system_iv(16), iota(0, 8, 2)},
  };
  int viable = 0;
  for (const auto& c : cases) {
    sim::Cluster cluster(c.topo);
    col::Backend backend(cluster);
    const auto& group = backend.create_group(c.ranks, "probe");
    const auto plan = col::plan_two_level(c.topo, c.ranks);
    viable += plan.viable() ? 1 : 0;
    const col::AlgoSelector sel;
    for (const auto op : kAllOps) {
      for (const std::int64_t bytes :
           {std::int64_t{0}, std::int64_t{512}, std::int64_t{64} << 10,
            std::int64_t{1} << 20, std::int64_t{64} << 20}) {
        for (const auto algo : kAllAlgos) {
          const double want =
              oracle_time(op, algo, c.topo, c.ranks, bytes, plan);
          EXPECT_EQ(col::collective_time(op, algo, group.cost_profile(), bytes),
                    want)
              << c.label << " " << col::op_name(op) << " "
              << col::algo_name(algo) << " " << bytes;
          EXPECT_EQ(col::collective_time(op, algo, c.topo, c.ranks, bytes, plan),
                    want)
              << c.label << " " << col::op_name(op) << " "
              << col::algo_name(algo) << " " << bytes;
        }
        EXPECT_EQ(group.algo_for(op, bytes),
                  sel.select(op, bytes, c.topo, c.ranks, plan))
            << c.label << " " << col::op_name(op) << " " << bytes;
      }
    }
  }
  // The sweep covers both the by-node/virtual-block plans and flat groups.
  EXPECT_GE(viable, 4);
  EXPECT_LT(viable, static_cast<int>(cases.size()));
}

TEST(HierarchicalCost, PerRankVolumeIsAlgorithmInvariant) {
  // (m-1)/m + (l-1)/(l*m) = (p-1)/p: the two-level decomposition re-routes
  // the inter-block share over the leader ring but moves exactly the same
  // per-rank total, so device byte counters never depend on the algorithm.
  const auto topo = sim::Topology::system_iii(4);
  std::vector<int> ranks(16);
  std::iota(ranks.begin(), ranks.end(), 0);
  const auto plan = col::plan_two_level(topo, ranks);
  const std::int64_t bytes = 1 << 20;
  for (const auto algo : kAllAlgos) {
    EXPECT_EQ(col::bytes_sent_per_rank(col::Op::kAllReduce, algo, 16, bytes,
                                       plan),
              col::bytes_sent_per_rank(col::Op::kAllReduce, 16, bytes));
  }
}

// ---- observability ----------------------------------------------------------

TEST(AlgoTrace, CommSpansCarryAlgorithmTagWithUnchangedName) {
  constexpr int kWorld = 8;
  Fixture f(sim::Topology::system_iii(2));
  f.cluster.enable_tracing();
  std::vector<std::vector<float>> bufs;
  const std::int64_t n = 1 << 20;  // 4 MiB: auto-selects hierarchical
  for (int r = 0; r < kWorld; ++r) bufs.push_back(payload(r, n));
  f.cluster.run([&](int rank) {
    f.backend.world().all_reduce(rank, bufs[static_cast<std::size_t>(rank)]);
  });
  const auto& events = f.cluster.tracer()->rank(0).events();
  bool found = false;
  for (const auto& e : events) {
    if (e.name == "world.all_reduce") {
      EXPECT_EQ(e.algo, "hierarchical");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

namespace {

/// Hop count of each cost formula: how many per-hop latencies `oracle_time`
/// charges for (op, algo) at `bytes`, independent of every bandwidth.
int oracle_hops(col::Op op, col::Algo algo, int p, std::int64_t bytes,
                const col::TwoLevelPlan& plan) {
  if (p < 2 || bytes == 0) return 0;
  const auto chunked = [&] {
    return op == col::Op::kAllReduce ? 2 * (p - 1) : p - 1;
  };
  switch (algo) {
    case col::Algo::kChunked:
      return chunked();
    case col::Algo::kRing: {
      const auto k = static_cast<int>(
          std::clamp<std::int64_t>(bytes / (256 << 10), 2, 16));
      if (op == col::Op::kAllReduce) return 2 * (p - 1) + k - 1;
      if (op == col::Op::kReduceScatter || op == col::Op::kAllGather) {
        return (p - 1) + k - 1;
      }
      return chunked();
    }
    case col::Algo::kHierarchical: {
      if (!plan.viable()) return chunked();
      const int intra = plan.max_block() - 1;
      const int inter = plan.num_blocks() - 1;  // one way over the leaders
      switch (op) {
        case col::Op::kAllReduce:
          return 2 * intra + 2 * inter;
        case col::Op::kReduceScatter:
        case col::Op::kReduce:
        case col::Op::kAllGather:
        case col::Op::kBroadcast:
          return intra + inter;
        default:
          return 0;
      }
    }
    case col::Algo::kSingleRoot: {
      int hops = 0;
      for (int v = p - 1; v > 0; v >>= 1) ++hops;
      if (op == col::Op::kAllReduce) return 2 * hops;
      if (op == col::Op::kBroadcast || op == col::Op::kReduce) return hops;
      return chunked();
    }
  }
  return 0;
}

}  // namespace

TEST(AlgoTrace, CommSpanAlphaIsHopsTimesLatency) {
  // Every forced algorithm on a multi-node (III) and a flat (IV) fabric: the
  // span's alpha is the op's latency share at its own byte count, never the
  // zero-byte price (which is 0 for every formula).
  for (const auto& topo :
       {sim::Topology::system_iii(2), sim::Topology::system_iv(16)}) {
    const int world = topo.num_devices();
    std::vector<int> ranks(static_cast<std::size_t>(world));
    std::iota(ranks.begin(), ranks.end(), 0);
    const auto plan = col::plan_two_level(topo, ranks);
    ASSERT_TRUE(plan.viable());
    for (const auto algo : kAllAlgos) {
      Fixture f(topo);
      f.cluster.enable_tracing();
      f.backend.set_forced_algo(algo);
      const std::int64_t n = std::int64_t{world} << 14;  // 512 KiB - 1 MiB
      f.cluster.run([&](int rank) {
        auto& g = f.backend.world();
        auto buf = payload(rank, n);
        std::vector<float> part(static_cast<std::size_t>(n / world));
        g.all_reduce(rank, buf);
        g.reduce_scatter(rank, buf, part);
        g.all_gather(rank, part, buf);
        g.broadcast(rank, buf, /*root=*/0);
        g.reduce(rank, buf, /*root=*/0);
      });
      int spans = 0;
      for (const auto& e : f.cluster.tracer()->rank(0).events()) {
        if (e.cat != ca::obs::Category::kComm) continue;
        ++spans;
        EXPECT_EQ(e.algo, col::algo_name(algo)) << e.name;
        col::Op op{};
        for (const auto candidate : kAllOps) {
          if (e.name == std::string("world.") + col::op_name(candidate)) {
            op = candidate;
          }
        }
        const int hops = oracle_hops(op, algo, world, e.bytes, plan);
        EXPECT_DOUBLE_EQ(e.alpha, hops * topo.latency())
            << e.name << " " << e.algo << " " << e.bytes;
        EXPECT_GT(e.alpha, 0.0) << e.name << " " << e.algo;
        EXPECT_LE(e.alpha, e.t1 - e.t0) << e.name << " " << e.algo;
      }
      EXPECT_EQ(spans, 5) << col::algo_name(algo);
    }
  }
}

// ---- context subgroups ------------------------------------------------------

TEST(ContextHier, DataNodeAndLeaderSubgroupsOnMultiNodeDp) {
  sim::Cluster cluster(sim::Topology::system_iii(2));  // 8 ranks, 2 nodes
  col::Backend backend(cluster);
  core::Config cfg;
  cfg.data_parallel_size = 8;
  core::ParallelContext ctx(backend, cfg);

  for (int r = 0; r < 8; ++r) {
    ASSERT_TRUE(ctx.has_data_node_group(r));
    EXPECT_EQ(ctx.data_node_group(r).size(), 4);
    EXPECT_EQ(ctx.is_data_leader(r), r == 0 || r == 4);
  }
  EXPECT_EQ(ctx.data_node_group(0).ranks(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ctx.data_node_group(5).ranks(), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(ctx.data_leader_group(0).ranks(), (std::vector<int>{0, 4}));
}

TEST(ContextHier, NoSubgroupsWhenDataGroupFitsOneNode) {
  sim::Cluster cluster(sim::Topology::system_i());
  col::Backend backend(cluster);
  core::Config cfg;
  cfg.data_parallel_size = 8;
  core::ParallelContext ctx(backend, cfg);
  for (int r = 0; r < 8; ++r) {
    EXPECT_FALSE(ctx.has_data_node_group(r));
    EXPECT_FALSE(ctx.is_data_leader(r));
  }
}

TEST(ContextHier, ManualTwoLevelAllReduceMatchesGlobal) {
  // Compose gradient sync from the explicit subgroups — intra-node reduce to
  // the leader, leader all-reduce, intra-node broadcast — and check it agrees
  // with the one-shot all_reduce (tolerance-based: the manual composition
  // reassociates the sum across levels).
  constexpr int kWorld = 8;
  const std::int64_t n = 256;
  sim::Cluster cluster(sim::Topology::system_iii(2));
  col::Backend backend(cluster);
  core::Config cfg;
  cfg.data_parallel_size = kWorld;
  core::ParallelContext ctx(backend, cfg);

  std::vector<std::vector<float>> manual, oneshot;
  for (int r = 0; r < kWorld; ++r) {
    manual.push_back(payload(r, n));
    oneshot.push_back(payload(r, n));
  }
  cluster.run([&](int rank) {
    const auto u = static_cast<std::size_t>(rank);
    auto& node = ctx.data_node_group(rank);
    node.reduce(rank, manual[u], /*root=*/0);
    if (ctx.is_data_leader(rank)) {
      ctx.data_leader_group(rank).all_reduce(rank, manual[u]);
    }
    node.broadcast(rank, manual[u], /*root=*/0);
    ctx.data_group(rank).all_reduce(rank, oneshot[u]);
  });
  for (int r = 0; r < kWorld; ++r) {
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(manual[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                  oneshot[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                  1e-4f);
    }
  }
}

TEST(ContextHier, ConfigKnobForcesAlgorithm) {
  sim::Cluster cluster(sim::Topology::system_iii(2));
  col::Backend backend(cluster);
  core::Config cfg;
  cfg.data_parallel_size = 8;
  cfg.collective_algo = "chunked";
  core::ParallelContext ctx(backend, cfg);
  // Even a hierarchical-friendly size must now stay chunked.
  EXPECT_EQ(backend.world().algo_for(col::Op::kAllReduce, 64 << 20),
            col::Algo::kChunked);

  core::Config bad;
  bad.collective_algo = "nonsense";
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ---- topology queries -------------------------------------------------------

TEST(TopologyNodes, NodeQueriesAndBandwidthClasses) {
  const auto topo = sim::Topology::system_iii(2);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(3), 0);
  EXPECT_EQ(topo.node_of(4), 1);
  EXPECT_TRUE(topo.same_node(0, 3));
  EXPECT_FALSE(topo.same_node(3, 4));
  const std::vector<int> spanning{0, 4};
  const std::vector<int> local{0, 1};
  EXPECT_TRUE(topo.spans_nodes(spanning));
  EXPECT_FALSE(topo.spans_nodes(local));
  EXPECT_DOUBLE_EQ(topo.intra_node_bandwidth(), 150.0e9);
  EXPECT_DOUBLE_EQ(topo.inter_node_bandwidth(), 25.0e9);
}
