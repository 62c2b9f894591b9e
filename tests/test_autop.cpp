// Tests for the automatic-parallelization module (Section 3.3): sharding
// spec algebra, the greedy conversion search against the exact Dijkstra
// reference, the strategy planner with integrated activation
// checkpointing, and the pipeline-schedule chooser.

#include <gtest/gtest.h>

#include "autop/conversion.hpp"
#include "autop/planner.hpp"
#include "autop/sharding_spec.hpp"
#include "pp/schedule.hpp"

namespace ap = ca::autop;

namespace {
const ap::Mesh kMesh{4, 2, 100e9, 25e9, 5e-6};

ap::ShardingSpec spec(std::initializer_list<ap::DimShard> d) {
  return ap::ShardingSpec(std::vector<ap::DimShard>(d));
}
}  // namespace

using ap::DimShard;

TEST(ShardingSpec, AxisAlgebra) {
  EXPECT_EQ(ap::add_axis(DimShard::kR, 0), DimShard::kS0);
  EXPECT_EQ(ap::add_axis(DimShard::kS1, 0), DimShard::kS01);
  EXPECT_EQ(ap::remove_axis(DimShard::kS01, 1), DimShard::kS0);
  EXPECT_EQ(ap::remove_axis(DimShard::kS0, 0), DimShard::kR);
  EXPECT_TRUE(ap::has_axis(DimShard::kS01, 0));
  EXPECT_FALSE(ap::has_axis(DimShard::kS1, 0));
}

TEST(ShardingSpec, ValidityRejectsDoubleUse) {
  EXPECT_TRUE(spec({DimShard::kS0, DimShard::kS1}).valid());
  EXPECT_FALSE(spec({DimShard::kS0, DimShard::kS0}).valid());
  EXPECT_FALSE(spec({DimShard::kS01, DimShard::kS1}).valid());
}

TEST(ShardingSpec, LocalNumel) {
  EXPECT_EQ(spec({DimShard::kR, DimShard::kR}).local_numel(800, kMesh), 800);
  EXPECT_EQ(spec({DimShard::kS0, DimShard::kR}).local_numel(800, kMesh), 200);
  EXPECT_EQ(spec({DimShard::kS0, DimShard::kS1}).local_numel(800, kMesh), 100);
  EXPECT_EQ(spec({DimShard::kS01, DimShard::kR}).local_numel(800, kMesh), 100);
}

TEST(ShardingSpec, Printing) {
  EXPECT_EQ(spec({DimShard::kS0, DimShard::kR}).str(), "[S0,R]");
  EXPECT_EQ(spec({DimShard::kS01, DimShard::kS1}).str(), "[S01,S1]");
}

TEST(Conversion, ShardIsFreeGatherIsNot) {
  const auto from = spec({DimShard::kR, DimShard::kR});
  auto steps = ap::enumerate_steps(from, kMesh, 1 << 20);
  bool found_free_shard = false;
  for (const auto& s : steps) {
    if (s.kind == ap::ConvStep::Kind::kShard) {
      EXPECT_EQ(s.cost, 0.0);
      found_free_shard = true;
    }
  }
  EXPECT_TRUE(found_free_shard);

  const auto sharded = spec({DimShard::kS0, DimShard::kR});
  for (const auto& s : ap::enumerate_steps(sharded, kMesh, 1 << 20)) {
    if (s.kind == ap::ConvStep::Kind::kAllGather) {
      EXPECT_GT(s.cost, 0.0);
    }
  }
}

TEST(Conversion, ApplyRoundTrips) {
  const auto from = spec({DimShard::kS0, DimShard::kR});
  ap::ConvStep a2a{ap::ConvStep::Kind::kAllToAll, 0, 0, 1, 0.0};
  const auto moved = ap::apply(from, a2a);
  EXPECT_EQ(moved, spec({DimShard::kR, DimShard::kS0}));
  ap::ConvStep back{ap::ConvStep::Kind::kAllToAll, 0, 1, 0, 0.0};
  EXPECT_EQ(ap::apply(moved, back), from);
}

TEST(Conversion, GreedyReachesTarget) {
  const auto from = spec({DimShard::kS0, DimShard::kS1});
  const auto to = spec({DimShard::kS1, DimShard::kS0});
  const auto plan = ap::plan_greedy(from, to, kMesh, 1 << 24);
  // verify by replay
  auto cur = from;
  for (const auto& s : plan.steps) cur = ap::apply(cur, s);
  EXPECT_EQ(cur, to);
  EXPECT_GT(plan.total_cost, 0.0);
}

TEST(Conversion, GreedyPrefersAllToAllOverGatherShard) {
  // moving S0 between dims: one all-to-all (local/n traffic) beats
  // all-gather (full) + free shard
  const auto from = spec({DimShard::kS0, DimShard::kR});
  const auto to = spec({DimShard::kR, DimShard::kS0});
  const auto plan = ap::plan_greedy(from, to, kMesh, 1 << 24);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].kind, ap::ConvStep::Kind::kAllToAll);
}

TEST(Conversion, GreedyMatchesOptimalOnExhaustiveSweep) {
  // every pair of valid 2-d specs on a 4x2 mesh: the greedy plan must land
  // within 1.5x of Dijkstra (and usually equal) — the paper's trade: a fast
  // search instead of a hardcoded table, without losing much.
  std::vector<ap::ShardingSpec> all;
  const DimShard kinds[] = {DimShard::kR, DimShard::kS0, DimShard::kS1,
                            DimShard::kS01};
  for (auto a : kinds)
    for (auto b : kinds) {
      auto s = spec({a, b});
      if (s.valid()) all.push_back(s);
    }
  int exact_matches = 0, total = 0;
  for (const auto& from : all) {
    for (const auto& to : all) {
      const auto greedy = ap::plan_greedy(from, to, kMesh, 1 << 22);
      const auto optimal = ap::plan_optimal(from, to, kMesh, 1 << 22);
      EXPECT_LE(greedy.total_cost, 1.5 * optimal.total_cost + 1e-12)
          << from.str() << " -> " << to.str();
      if (greedy.total_cost <= optimal.total_cost + 1e-12) ++exact_matches;
      ++total;
    }
  }
  // greedy should be exactly optimal in the large majority of cases
  EXPECT_GT(exact_matches * 10, total * 8);
}

TEST(Conversion, OptimalIdentityIsFree) {
  const auto s = spec({DimShard::kS0, DimShard::kS1});
  EXPECT_EQ(ap::plan_optimal(s, s, kMesh, 1 << 20).total_cost, 0.0);
  EXPECT_TRUE(ap::plan_greedy(s, s, kMesh, 1 << 20).steps.empty());
}

// ---- planner ---------------------------------------------------------------------

TEST(Planner, SmallModelPrefersDataParallel) {
  // tiny weights, big batch: weight all-reduce is cheap, activations dominate
  ap::Planner planner(kMesh, 100e12);
  std::vector<ap::LinearNode> graph{{"l0", 1 << 16, 256, 256},
                                    {"l1", 1 << 16, 256, 256}};
  const auto plan = planner.plan(graph, std::int64_t{64} << 30);
  ASSERT_TRUE(plan.feasible);
  for (const auto& n : plan.nodes)
    EXPECT_NE(n.strategy.find("data-parallel"), std::string::npos) << n.strategy;
}

TEST(Planner, HugeWeightsPreferTensorParallel) {
  // giant weights, small batch: replicating weights is hopeless; the planner
  // must shard them (column/row-parallel), Megatron-style.
  ap::Planner planner(kMesh, 100e12);
  std::vector<ap::LinearNode> graph{{"fc1", 512, 16384, 65536},
                                    {"fc2", 512, 65536, 16384}};
  const auto plan = planner.plan(graph, std::int64_t{64} << 30);
  ASSERT_TRUE(plan.feasible);
  for (const auto& n : plan.nodes) {
    EXPECT_TRUE(n.strategy.find("column-parallel") != std::string::npos ||
                n.strategy.find("row-parallel") != std::string::npos)
        << n.strategy;
  }
}

TEST(Planner, MegatronPairingAvoidsConversions) {
  // col-parallel then row-parallel chain: the output spec of the first
  // matches the input spec of the second, so conversion cost must be zero.
  ap::Planner planner(kMesh, 100e12);
  std::vector<ap::LinearNode> graph{{"fc1", 512, 8192, 32768},
                                    {"fc2", 512, 32768, 8192}};
  const auto plan = planner.plan(graph, std::int64_t{64} << 30);
  ASSERT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.nodes[1].conversion_cost, 0.0);
}

TEST(Planner, CheckpointingActivatesUnderTightBudget) {
  ap::Planner planner(kMesh, 100e12);
  std::vector<ap::LinearNode> graph;
  for (int i = 0; i < 6; ++i)
    graph.push_back({"l" + std::to_string(i), 1 << 14, 4096, 4096});

  const auto loose = planner.plan(graph, std::int64_t{64} << 30);
  ASSERT_TRUE(loose.feasible);
  int loose_ckpt = 0;
  for (const auto& n : loose.nodes) loose_ckpt += n.checkpointed ? 1 : 0;
  EXPECT_EQ(loose_ckpt, 0);

  // budget just above the parameter floor forces checkpointing
  const auto tight = planner.plan(graph, loose.peak_bytes / 2);
  int tight_ckpt = 0;
  for (const auto& n : tight.nodes) tight_ckpt += n.checkpointed ? 1 : 0;
  EXPECT_GT(tight_ckpt, 0);
  EXPECT_LE(tight.peak_bytes, loose.peak_bytes);
  EXPECT_GE(tight.step_seconds, loose.step_seconds);  // recompute costs time
}

TEST(Planner, InfeasibleBudgetReported) {
  ap::Planner planner(kMesh, 100e12);
  std::vector<ap::LinearNode> graph{{"l0", 1 << 14, 4096, 4096}};
  const auto plan = planner.plan(graph, 1024);  // absurd budget
  EXPECT_FALSE(plan.feasible);
}

TEST(Planner, PrefersTheFasterMeshAxis) {
  // same shape, two meshes that differ only in which axis is fast: the
  // data-parallel strategy's weight all-reduce should land on the fast axis.
  std::vector<ap::LinearNode> graph{{"l", 1 << 16, 256, 256}};
  const std::int64_t budget = std::int64_t{64} << 30;

  ap::Planner fast0(ap::Mesh{4, 4, 100e9, 5e9, 5e-6}, 100e12);
  const auto plan0 = fast0.plan(graph, budget);
  EXPECT_NE(plan0.nodes[0].strategy.find("axis0"), std::string::npos)
      << plan0.nodes[0].strategy;

  ap::Planner fast1(ap::Mesh{4, 4, 5e9, 100e9, 5e-6}, 100e12);
  const auto plan1 = fast1.plan(graph, budget);
  EXPECT_NE(plan1.nodes[0].strategy.find("axis1"), std::string::npos)
      << plan1.nodes[0].strategy;
}

TEST(Conversion, CostsScaleLinearlyWithTensorSize) {
  const ap::Mesh mesh{4, 2, 100e9, 25e9, 0.0};  // alpha 0: pure bandwidth
  const auto from = spec({DimShard::kS0, DimShard::kR});
  const auto to = spec({DimShard::kR, DimShard::kS0});
  const auto small = ap::plan_greedy(from, to, mesh, 1 << 20);
  const auto big = ap::plan_greedy(from, to, mesh, 4 << 20);
  EXPECT_NEAR(big.total_cost / small.total_cost, 4.0, 1e-9);
}

namespace {
const ca::pp::StageSeconds kUnitStage{1.0, 1.0, 1.0, 0.0, 0.0};
}  // namespace

TEST(PipeScheduleChooser, UnconstrainedPrefersZeroBubble) {
  const auto pick = ap::best_pipeline_schedule(4, 8, /*chunks=*/2, kUnitStage,
                                               1 << 20, /*budget=*/0);
  EXPECT_EQ(pick.sched, ca::pp::Schedule::kZeroBubble);
  EXPECT_TRUE(pick.feasible);
  // it wins by shrinking the replayed 1F1B bubble
  const auto f1b = ca::pp::time_schedule(
      *ca::pp::compile_schedule(ca::pp::Schedule::kOneFOneB, 4, 8, 1),
      kUnitStage);
  EXPECT_LT(pick.timing.bubble_fraction, f1b.bubble_fraction);
}

TEST(PipeScheduleChooser, TightMemoryFallsBackToOneFOneB) {
  const std::int64_t per_micro = 1 << 20;
  // enough for 1F1B's S resident micros but not zero-bubble's
  const auto pick = ap::best_pipeline_schedule(4, 8, /*chunks=*/1, kUnitStage,
                                               per_micro, 4 * per_micro);
  EXPECT_EQ(pick.sched, ca::pp::Schedule::kOneFOneB);
  EXPECT_TRUE(pick.feasible);
  EXPECT_LE(pick.peak_bytes, 4 * per_micro);
}

TEST(PipeScheduleChooser, BudgetChecksExecutedResidency) {
  const std::int64_t per_micro = 1 << 20;
  // zero-bubble at S=4 M=8 holds all 8 micros on rank 0, so a 7-micro
  // budget rules it out and leaves 1F1B's 4
  const auto pick = ap::best_pipeline_schedule(4, 8, /*chunks=*/1, kUnitStage,
                                               per_micro, 7 * per_micro);
  EXPECT_EQ(pick.sched, ca::pp::Schedule::kOneFOneB);
  EXPECT_TRUE(pick.feasible);
  EXPECT_EQ(pick.peak_bytes, 4 * per_micro);
}

TEST(PipeScheduleChooser, NothingFitsReportsInfeasibleMinimum) {
  const auto pick = ap::best_pipeline_schedule(4, 8, /*chunks=*/1, kUnitStage,
                                               1 << 20, /*budget=*/1);
  EXPECT_FALSE(pick.feasible);
  // the least-memory candidate is the 1F1B cap
  EXPECT_EQ(pick.sched, ca::pp::Schedule::kOneFOneB);
}
