// Tests for the parallel context manager: config validation, rank
// decomposition, and process-group construction for every parallel mode.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

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

TEST(ConfigParser, RejectsWorldSizeBeyondInt) {
  // 65536 * 65536 wrapped to a world of 0 ranks and passed validation.
  EXPECT_THROW(core::parse_config("data=65536 tensor.size=65536 tensor.mode=1d"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_config("data=2147483647 pipeline=2"),
               std::invalid_argument);
  EXPECT_EQ(core::parse_config("data=2147483647").world_size(), 2147483647);
  // the side checks of the largest sizes (46341^2 overflowed int)
  EXPECT_THROW(core::parse_config("tensor.size=2147483647 tensor.mode=2d"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_config("tensor.size=2147483647 tensor.mode=3d"),
               std::invalid_argument);
  EXPECT_EQ(core::Config::exact_sqrt(2147395600), 46340);
  EXPECT_EQ(core::Config::exact_cbrt(2146689000), 1290);
}

TEST(ConfigSweep, MutatedListingOneStringsParseOrRaiseStructuredErrors) {
  // Mutate a Listing-1 string the way CheckpointSweep damages a checkpoint:
  // delete or substitute every byte, duplicate every key, and give every
  // integer key huge, negative and boundary values. Each case must either
  // parse into a config that validates with a world size that fits in int,
  // or throw std::invalid_argument. The ASan+UBSan job runs this sweep, so
  // undefined behaviour on the way (signed overflow) fails it too.
  const std::string base =
      "data=2 pipeline=2 tensor.size=8 tensor.mode=2.5d tensor.depth=2 "
      "checkpoint.interval=5 comm_dtype=bf16 sim.workers=2";
  int parsed = 0, rejected = 0;
  const auto check = [&](const std::string& text) {
    try {
      const core::Config cfg = core::parse_config(text);
      EXPECT_NO_THROW(cfg.validate()) << text;
      const std::int64_t world =
          std::int64_t{cfg.data_parallel_size} * cfg.pipeline_parallel_size *
          cfg.tensor_parallel_size * cfg.sequence_parallel_size;
      EXPECT_EQ(world, cfg.world_size()) << text;
      EXPECT_GE(cfg.world_size(), 1) << text;
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << text << "': unstructured error: " << e.what();
    }
  };
  check(base);
  ASSERT_EQ(parsed, 1);
  for (std::size_t i = 0; i < base.size(); ++i) {
    check(base.substr(0, i) + base.substr(i + 1));
    for (const char c : {'0', '1', '9', '-', '=', '.', ' ', 'x', '\0'}) {
      std::string sub = base;
      sub[i] = c;
      check(sub);
    }
  }
  std::istringstream tokens(base);
  for (std::string token; tokens >> token;) {
    check(base + " " + token);
    check(token + " " + base);
  }
  for (const char* key : {"data", "pipeline", "tensor.size", "tensor.depth",
                          "sequence", "checkpoint.interval", "sim.workers"}) {
    for (const char* value :
         {"0", "-1", "-2147483648", "2147483647", "2147483648", "65536",
          "46341", "1291", "99999999999999999999", "+4", " 4", "4 "}) {
      check(base + " " + key + "=" + value);
      check(std::string(key) + "=" + value);
      check(std::string("data=65536 ") + key + "=" + value);
    }
  }
  EXPECT_GT(parsed, 50);
  EXPECT_GT(rejected, 500);
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
