// Tests for the parallel context manager: config validation, rank
// decomposition, and process-group construction for every parallel mode.

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/context.hpp"

namespace core = ca::core;
namespace col = ca::collective;
namespace sim = ca::sim;

namespace {

struct World {
  explicit World(int n)
      : cluster(sim::Topology::uniform(n, 100e9)), backend(cluster) {}
  sim::Cluster cluster;
  col::Backend backend;
};

}  // namespace

TEST(Config, WorldSizeIsProductOfDims) {
  core::Config cfg;
  cfg.data_parallel_size = 2;
  cfg.pipeline_parallel_size = 3;
  cfg.tensor_parallel_size = 4;
  cfg.tensor_mode = core::TpMode::k1d;
  EXPECT_EQ(cfg.world_size(), 24);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, RejectsNonSquare2d) {
  core::Config cfg;
  cfg.tensor_parallel_size = 6;
  cfg.tensor_mode = core::TpMode::k2d;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.tensor_parallel_size = 9;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, Rejects2p5dWithBadDepth) {
  core::Config cfg;
  cfg.tensor_mode = core::TpMode::k2p5d;
  cfg.tensor_parallel_size = 8;
  cfg.tensor_depth = 2;  // 8 = 2 * 2^2 OK
  EXPECT_NO_THROW(cfg.validate());
  cfg.tensor_depth = 3;  // 8/3 not integral
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, RejectsNonCube3d) {
  core::Config cfg;
  cfg.tensor_mode = core::TpMode::k3d;
  cfg.tensor_parallel_size = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.tensor_parallel_size = 27;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, RejectsTensorPlusSequence) {
  core::Config cfg;
  cfg.tensor_parallel_size = 2;
  cfg.tensor_mode = core::TpMode::k1d;
  cfg.sequence_parallel_size = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, RejectsTensorSizeWithoutMode) {
  core::Config cfg;
  cfg.tensor_parallel_size = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Context, RejectsMismatchedWorldSize) {
  World w(4);
  core::Config cfg;  // world 1 != 4
  EXPECT_THROW(core::ParallelContext(w.backend, cfg), std::invalid_argument);
}

TEST(Context, RankDecompositionDataPipeTensor) {
  World w(8);
  core::Config cfg;
  cfg.data_parallel_size = 2;
  cfg.pipeline_parallel_size = 2;
  cfg.tensor_parallel_size = 2;
  cfg.tensor_mode = core::TpMode::k1d;
  core::ParallelContext ctx(w.backend, cfg);

  // grank = (d * 2 + p) * 2 + t
  EXPECT_EQ(ctx.data_rank(0), 0);
  EXPECT_EQ(ctx.data_rank(7), 1);
  EXPECT_EQ(ctx.pipeline_rank(2), 1);
  EXPECT_EQ(ctx.pipeline_rank(5), 0);
  EXPECT_EQ(ctx.tensor_rank(5), 1);

  // tensor groups are consecutive pairs
  EXPECT_EQ(ctx.tensor_group(0).ranks(), (std::vector<int>{0, 1}));
  EXPECT_EQ(ctx.tensor_group(6).ranks(), (std::vector<int>{6, 7}));
  // data group of rank 1: same (pipe=0, t=1) in both replicas -> {1, 5}
  EXPECT_EQ(ctx.data_group(1).ranks(), (std::vector<int>{1, 5}));
}

TEST(Context, PipelineNeighbors) {
  World w(4);
  core::Config cfg;
  cfg.pipeline_parallel_size = 4;
  core::ParallelContext ctx(w.backend, cfg);
  EXPECT_EQ(ctx.pipeline_prev(0), -1);
  EXPECT_TRUE(ctx.is_first_stage(0));
  EXPECT_EQ(ctx.pipeline_next(0), 1);
  EXPECT_EQ(ctx.pipeline_prev(3), 2);
  EXPECT_EQ(ctx.pipeline_next(3), -1);
  EXPECT_TRUE(ctx.is_last_stage(3));
}

TEST(Context, Grid2dGroups) {
  World w(4);
  core::Config cfg;
  cfg.tensor_parallel_size = 4;
  cfg.tensor_mode = core::TpMode::k2d;
  core::ParallelContext ctx(w.backend, cfg);

  EXPECT_EQ(ctx.grid_side(), 2);
  // layout: t = r*2 + c
  EXPECT_EQ(ctx.row_coord(0), 0);
  EXPECT_EQ(ctx.col_coord(1), 1);
  EXPECT_EQ(ctx.row_coord(2), 1);
  EXPECT_EQ(ctx.row_group(0).ranks(), (std::vector<int>{0, 1}));
  EXPECT_EQ(ctx.row_group(3).ranks(), (std::vector<int>{2, 3}));
  EXPECT_EQ(ctx.col_group(0).ranks(), (std::vector<int>{0, 2}));
  EXPECT_EQ(ctx.col_group(3).ranks(), (std::vector<int>{1, 3}));
  // no depth group in 2D
  EXPECT_THROW((void)ctx.depth_group(0), std::logic_error);
}

TEST(Context, Grid2dIsDepthOneGridWhateverTensorDepth) {
  // tensor_depth is the d of 2.5D: a "2d" config carrying depth 4 still
  // builds the 4-GPU grid at depth 1 (the value is not even validated).
  World w(4);
  core::Config cfg;
  cfg.tensor_parallel_size = 4;
  cfg.tensor_mode = core::TpMode::k2d;
  cfg.tensor_depth = 4;
  core::ParallelContext ctx(w.backend, cfg);

  EXPECT_EQ(ctx.grid_side(), 2);
  EXPECT_EQ(ctx.depth(), 1);
  for (int g = 0; g < 4; ++g) EXPECT_EQ(ctx.depth_coord(g), 0) << g;
  EXPECT_EQ(ctx.row_group(3).ranks(), (std::vector<int>{2, 3}));
  EXPECT_EQ(ctx.col_group(3).ranks(), (std::vector<int>{1, 3}));
  EXPECT_THROW((void)ctx.depth_group(0), std::logic_error);

  // "2.5d" at depth 1 is the same grid, also without depth groups.
  World w2(4);
  cfg.tensor_mode = core::TpMode::k2p5d;
  cfg.tensor_depth = 1;
  core::ParallelContext ctx2(w2.backend, cfg);
  EXPECT_EQ(ctx2.depth(), 1);
  EXPECT_EQ(ctx2.row_group(3).ranks(), ctx.row_group(3).ranks());
  EXPECT_EQ(ctx2.col_group(3).ranks(), ctx.col_group(3).ranks());
  EXPECT_THROW((void)ctx2.depth_group(0), std::logic_error);
}

TEST(Context, Grid2p5dGroups) {
  World w(8);
  core::Config cfg;
  cfg.tensor_parallel_size = 8;
  cfg.tensor_mode = core::TpMode::k2p5d;
  cfg.tensor_depth = 2;
  core::ParallelContext ctx(w.backend, cfg);

  EXPECT_EQ(ctx.grid_side(), 2);
  EXPECT_EQ(ctx.depth(), 2);
  EXPECT_EQ(ctx.depth_coord(0), 0);
  EXPECT_EQ(ctx.depth_coord(5), 1);
  // depth layers: {0..3} and {4..7}; rows within each layer
  EXPECT_EQ(ctx.row_group(5).ranks(), (std::vector<int>{4, 5}));
  EXPECT_EQ(ctx.col_group(6).ranks(), (std::vector<int>{4, 6}));
  // depth group joins the same grid cell across layers
  EXPECT_EQ(ctx.depth_group(1).ranks(), (std::vector<int>{1, 5}));
  EXPECT_EQ(ctx.depth_group(7).ranks(), (std::vector<int>{3, 7}));
}

TEST(Context, Cube3dGroups) {
  World w(8);
  core::Config cfg;
  cfg.tensor_parallel_size = 8;
  cfg.tensor_mode = core::TpMode::k3d;
  core::ParallelContext ctx(w.backend, cfg);

  EXPECT_EQ(ctx.grid_side(), 2);
  // t = (i*2 + j)*2 + k; rank 5 = (1,0,1)
  EXPECT_EQ(ctx.cube_i(5), 1);
  EXPECT_EQ(ctx.cube_j(5), 0);
  EXPECT_EQ(ctx.cube_k(5), 1);
  // i-group of rank 5: vary i with j=0,k=1 -> {1, 5}
  EXPECT_EQ(ctx.cube_i_group(5).ranks(), (std::vector<int>{1, 5}));
  // j-group: vary j with i=1,k=1 -> {5, 7}
  EXPECT_EQ(ctx.cube_j_group(5).ranks(), (std::vector<int>{5, 7}));
  // k-group: vary k with i=1,j=0 -> {4, 5}
  EXPECT_EQ(ctx.cube_k_group(5).ranks(), (std::vector<int>{4, 5}));
}

TEST(Context, SequenceGroupAliasesTensorSlot) {
  World w(4);
  core::Config cfg;
  cfg.sequence_parallel_size = 4;
  core::ParallelContext ctx(w.backend, cfg);
  EXPECT_EQ(ctx.sequence_group(0).ranks(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ctx.tensor_rank(3), 3);
}

TEST(Context, HybridTensorDataGroupsUnderMultiReplica) {
  // 2 data replicas x 2D tensor parallelism over 4 => world 8
  World w(8);
  core::Config cfg;
  cfg.data_parallel_size = 2;
  cfg.tensor_parallel_size = 4;
  cfg.tensor_mode = core::TpMode::k2d;
  core::ParallelContext ctx(w.backend, cfg);

  EXPECT_EQ(ctx.tensor_group(5).ranks(), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(ctx.data_group(5).ranks(), (std::vector<int>{1, 5}));
  // grid sub-groups live inside the second tensor group too
  EXPECT_EQ(ctx.row_group(5).ranks(), (std::vector<int>{4, 5}));
  EXPECT_EQ(ctx.col_group(5).ranks(), (std::vector<int>{5, 7}));
}

// ---- Listing-1 textual configuration -------------------------------------------------

#include "core/config_parser.hpp"

TEST(ConfigParser, ParsesFullSchema) {
  auto cfg = core::parse_config(
      "data=2 pipeline=2 tensor.size=8 tensor.mode=2.5d tensor.depth=2");
  EXPECT_EQ(cfg.data_parallel_size, 2);
  EXPECT_EQ(cfg.pipeline_parallel_size, 2);
  EXPECT_EQ(cfg.tensor_parallel_size, 8);
  EXPECT_EQ(cfg.tensor_mode, core::TpMode::k2p5d);
  EXPECT_EQ(cfg.tensor_depth, 2);
  EXPECT_EQ(cfg.world_size(), 32);
}

TEST(ConfigParser, AcceptsParallelPrefixAndDefaults) {
  auto cfg = core::parse_config("parallel.tensor.size=4");
  EXPECT_EQ(cfg.tensor_mode, core::TpMode::k1d);  // default mode
  EXPECT_EQ(cfg.world_size(), 4);
  auto empty = core::parse_config("");
  EXPECT_EQ(empty.world_size(), 1);
}

TEST(ConfigParser, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(core::parse_config("bogus=1"), std::invalid_argument);
  EXPECT_THROW(core::parse_config("data=two"), std::invalid_argument);
  EXPECT_THROW(core::parse_config("tensor.mode=4d"), std::invalid_argument);
  EXPECT_THROW(core::parse_config("data 2"), std::invalid_argument);
  // validation runs too: 2D with non-square size
  EXPECT_THROW(core::parse_config("tensor.size=6 tensor.mode=2d"),
               std::invalid_argument);
}

// ---- launch() convenience ------------------------------------------------------------

#include "core/launch.hpp"

TEST(Launch, ConfigToSpmdInTwoLines) {
  auto world = core::launch("tensor.size=4 tensor.mode=2d");
  EXPECT_EQ(world->world_size(), 4);
  std::vector<int> rows(4, -1);
  world->run([&](ca::tp::Env env) {
    rows[static_cast<std::size_t>(env.grank)] =
        env.ctx->row_coord(env.grank);
  });
  EXPECT_EQ(rows, (std::vector<int>{0, 0, 1, 1}));
}

TEST(Launch, RejectsTopologySizeMismatch) {
  EXPECT_THROW(core::launch("data=4", sim::Topology::system_i()),
               std::invalid_argument);
  EXPECT_NO_THROW(core::launch("data=8", sim::Topology::system_i()));
}
