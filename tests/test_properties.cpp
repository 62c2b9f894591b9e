// Property-based sweeps (parameterized gtest): algebraic invariants of the
// collectives, fp16 conversion, shape ops, the memory models, and a
// cross-size/cross-mode exactness sweep of the tensor-parallel linears.

#include <gtest/gtest.h>

#include <random>

#include "collective/backend.hpp"
#include "sp/memory_model.hpp"
#include "tensor/half.hpp"
#include "tensor/ops.hpp"
#include "tp/linear1d.hpp"
#include "tp/linear2p5d.hpp"
#include "tp/linear3d.hpp"
#include "tp/memory_model.hpp"
#include "tp_case_name.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;

// ---- collective algebra -------------------------------------------------------------

class CollectiveAlgebra : public ::testing::TestWithParam<int> {
 protected:
  struct W {
    explicit W(int n) : cluster(sim::Topology::uniform(n, 100e9)), backend(cluster) {}
    sim::Cluster cluster;
    col::Backend backend;
  };
};

TEST_P(CollectiveAlgebra, AllReduceEqualsSumOfInputs) {
  const int p = GetParam();
  W w(p);
  const std::size_t n = 37;  // deliberately not a multiple of p
  std::vector<std::vector<float>> bufs(static_cast<std::size_t>(p));
  std::vector<float> expect(n, 0.0f);
  std::mt19937 gen(7);
  for (int r = 0; r < p; ++r) {
    bufs[static_cast<std::size_t>(r)].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float v = std::uniform_real_distribution<float>(-1, 1)(gen);
      bufs[static_cast<std::size_t>(r)][i] = v;
      expect[i] += v;
    }
  }
  w.cluster.run([&](int r) {
    w.backend.world().all_reduce(r, bufs[static_cast<std::size_t>(r)]);
  });
  for (int r = 0; r < p; ++r)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(bufs[static_cast<std::size_t>(r)][i], expect[i], 1e-5f);
}

TEST_P(CollectiveAlgebra, ReduceScatterThenAllGatherEqualsAllReduce) {
  const int p = GetParam();
  W w1(p), w2(p);
  const std::size_t chunk = 5;
  const std::size_t n = chunk * static_cast<std::size_t>(p);

  std::vector<std::vector<float>> a(static_cast<std::size_t>(p)),
      b(static_cast<std::size_t>(p));
  std::mt19937 gen(9);
  for (int r = 0; r < p; ++r) {
    a[static_cast<std::size_t>(r)].resize(n);
    for (auto& v : a[static_cast<std::size_t>(r)])
      v = std::uniform_real_distribution<float>(-1, 1)(gen);
    b[static_cast<std::size_t>(r)] = a[static_cast<std::size_t>(r)];
  }
  w1.cluster.run([&](int r) {
    w1.backend.world().all_reduce(r, a[static_cast<std::size_t>(r)]);
  });
  w2.cluster.run([&](int r) {
    std::vector<float> shard(chunk);
    w2.backend.world().reduce_scatter(r, b[static_cast<std::size_t>(r)], shard);
    w2.backend.world().all_gather(r, shard, b[static_cast<std::size_t>(r)]);
  });
  for (int r = 0; r < p; ++r)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(a[static_cast<std::size_t>(r)][i],
                  b[static_cast<std::size_t>(r)][i], 1e-5f);
}

TEST_P(CollectiveAlgebra, AllToAllIsAnInvolution) {
  const int p = GetParam();
  W w(p);
  const std::size_t n = static_cast<std::size_t>(p) * 3;
  std::vector<std::vector<float>> orig(static_cast<std::size_t>(p)),
      cur(static_cast<std::size_t>(p));
  std::mt19937 gen(11);
  for (int r = 0; r < p; ++r) {
    orig[static_cast<std::size_t>(r)].resize(n);
    for (auto& v : orig[static_cast<std::size_t>(r)])
      v = std::uniform_real_distribution<float>(-1, 1)(gen);
    cur[static_cast<std::size_t>(r)] = orig[static_cast<std::size_t>(r)];
  }
  w.cluster.run([&](int r) {
    std::vector<float> tmp(n);
    w.backend.world().all_to_all(r, cur[static_cast<std::size_t>(r)], tmp);
    w.backend.world().all_to_all(r, tmp, cur[static_cast<std::size_t>(r)]);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(cur[static_cast<std::size_t>(r)], orig[static_cast<std::size_t>(r)]);
}

TEST_P(CollectiveAlgebra, BroadcastMakesAllBuffersEqualRoot) {
  const int p = GetParam();
  W w(p);
  std::vector<std::vector<float>> bufs(static_cast<std::size_t>(p),
                                       std::vector<float>(4));
  for (int r = 0; r < p; ++r)
    for (int i = 0; i < 4; ++i)
      bufs[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] =
          static_cast<float>(r * 10 + i);
  const int root = p - 1;
  w.cluster.run([&](int r) {
    w.backend.world().broadcast(r, bufs[static_cast<std::size_t>(r)], root);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)],
              bufs[static_cast<std::size_t>(root)]);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveAlgebra,
                         ::testing::Values(2, 3, 4, 5, 8));

// ---- fp16 properties -----------------------------------------------------------------

TEST(HalfProperties, RoundTripIsIdempotent) {
  auto xs = t::randn(t::Shape{2000}, 13, 0.0f, 100.0f);
  for (float v : xs.data()) {
    const float once = t::fp16_round_trip(v);
    EXPECT_EQ(t::fp16_round_trip(once), once);
  }
}

TEST(HalfProperties, PreservesOrdering) {
  auto xs = t::uniform(t::Shape{1000}, 17, -50.0f, 50.0f);
  auto ys = t::uniform(t::Shape{1000}, 18, -50.0f, 50.0f);
  for (std::int64_t i = 0; i < 1000; ++i) {
    const float a = xs[i], b = ys[i];
    if (a <= b) {
      EXPECT_LE(t::fp16_round_trip(a), t::fp16_round_trip(b));
    } else {
      EXPECT_GE(t::fp16_round_trip(a), t::fp16_round_trip(b));
    }
  }
}

TEST(HalfProperties, NegationSymmetry) {
  auto xs = t::randn(t::Shape{500}, 19, 0.0f, 10.0f);
  for (float v : xs.data())
    EXPECT_EQ(t::fp16_round_trip(-v), -t::fp16_round_trip(v));
}

// ---- shape-op properties ----------------------------------------------------------------

class ChunkCatProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChunkCatProperty, CatOfChunksIsIdentity) {
  const auto [dim, parts] = GetParam();
  auto x = t::randn(t::Shape{12, 12, 12}, 23);  // divisible by 2, 3, and 4
  std::vector<t::Tensor> chunks;
  for (int i = 0; i < parts; ++i) chunks.push_back(t::chunk(x, dim, parts, i));
  EXPECT_EQ(t::max_diff(t::cat(chunks, dim), x), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(DimsAndParts, ChunkCatProperty,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(2, 3, 4)));

// ---- memory-model monotonicity -------------------------------------------------------------

class MemoryMonotonic : public ::testing::TestWithParam<core::TpMode> {};

TEST_P(MemoryMonotonic, PeakGrowsWithBatchAndHidden) {
  const auto mode = GetParam();
  const int p = mode == core::TpMode::k2p5d || mode == core::TpMode::k3d ? 8 : 4;
  const int depth = mode == core::TpMode::k2p5d ? 2 : 1;
  std::int64_t prev = 0;
  for (std::int64_t b : {64, 128, 256}) {
    const auto peak = tp::two_layer_peak(mode, {b * 64, 1024, 4}, p, depth);
    EXPECT_GT(peak, prev);
    prev = peak;
  }
  prev = 0;
  for (std::int64_t h : {512, 1024, 2048}) {
    const auto peak = tp::two_layer_peak(mode, {4096, h, 4}, p, depth);
    EXPECT_GT(peak, prev);
    prev = peak;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, MemoryMonotonic,
                         ::testing::Values(core::TpMode::k1d, core::TpMode::k2d,
                                           core::TpMode::k2p5d,
                                           core::TpMode::k3d));

TEST(SpMemoryProperties, MorePartitionsNeverIncreasePeak) {
  ca::sp::BertShape s;
  s.batch = 64;
  s.seq = 512;
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (int p : {2, 4, 8, 16}) {
    const auto peak = ca::sp::bert_peak_sp(s, p);
    EXPECT_LE(peak, prev);
    prev = peak;
  }
}

// ---- tensor-parallel exactness sweep ---------------------------------------------------------

struct TpSweepCase {
  core::TpMode mode;
  int p;
  int depth;
  std::int64_t rows, in, out;
  std::uint64_t seed;
};

// Names each case in test listings (e.g. "2d_p4_d1") instead of a byte dump.
void PrintTo(const TpSweepCase& c, std::ostream* os) {
  *os << tp_case_name(c.mode, c.p, c.depth);
}

class TpExactnessSweep : public ::testing::TestWithParam<TpSweepCase> {};

TEST_P(TpExactnessSweep, LinearForwardBackwardMatchSerial) {
  const auto c = GetParam();
  core::Config cfg;
  cfg.tensor_parallel_size = c.p;
  cfg.tensor_mode = c.mode;
  cfg.tensor_depth = c.depth;
  sim::Cluster cluster(sim::Topology::uniform(c.p, 100e9));
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, cfg);
  ctx.set_comm_dtype(t::Dtype::kF32);  // serial-equivalence test: fp32 wire

  nn::Linear serial("l", c.in, c.out, c.seed);
  auto x = t::randn(t::Shape{c.rows, c.in}, c.seed + 1);
  auto y_ref = serial.forward(x);
  auto dy = t::randn(t::Shape{c.rows, c.out}, c.seed + 2);
  auto dx_ref = serial.backward(dy);

  // One byte per rank: ranks write concurrently, and std::vector<bool>'s
  // packed bits would turn that into a read-modify-write race on one word.
  std::vector<char> ok(static_cast<std::size_t>(c.p), 0);
  cluster.run([&](int g) {
    tp::Env env{&ctx, g};
    t::Tensor y, dx, y_expect, dx_expect;
    switch (c.mode) {
      case core::TpMode::k1d: {
        tp::Linear1DCol lin(env, "l", c.in, c.out, c.seed, true);
        y = lin.forward(x);
        dx = lin.backward(dy);
        y_expect = y_ref;
        dx_expect = dx_ref;
        break;
      }
      case core::TpMode::k2d:
      case core::TpMode::k2p5d: {
        tp::Linear2p5D lin(env, "l", c.in, c.out, c.seed);
        y = lin.forward(tp::Linear2p5D::shard_activation(x, env));
        dx = lin.backward(tp::Linear2p5D::shard_activation(dy, env));
        y_expect = tp::Linear2p5D::shard_activation(y_ref, env);
        dx_expect = tp::Linear2p5D::shard_activation(dx_ref, env);
        break;
      }
      case core::TpMode::k3d: {
        const int l = ctx.grid_side();
        const int i = ctx.cube_i(g), j = ctx.cube_j(g), k = ctx.cube_k(g);
        tp::Linear3D lin(env, "l", c.in, c.out, c.seed);
        y = lin.forward(tp::Linear3D::shard_input(x, l, i, j, k));
        dx = lin.backward(tp::Linear3D::shard_output(dy, l, i, j, k));
        y_expect = tp::Linear3D::shard_output(y_ref, l, i, j, k);
        dx_expect = tp::Linear3D::shard_input(dx_ref, l, i, j, k);
        break;
      }
      default:
        return;
    }
    ok[static_cast<std::size_t>(g)] =
        t::allclose(y, y_expect, 1e-4f) && t::allclose(dx, dx_expect, 1e-4f);
  });
  for (int g = 0; g < c.p; ++g) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(g)] != 0) << "rank " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesSizesSeeds, TpExactnessSweep,
    ::testing::Values(
        TpSweepCase{core::TpMode::k1d, 2, 1, 6, 10, 8, 100},
        TpSweepCase{core::TpMode::k1d, 8, 1, 16, 24, 16, 200},
        TpSweepCase{core::TpMode::k2d, 4, 1, 10, 6, 14, 300},
        TpSweepCase{core::TpMode::k2d, 9, 1, 12, 9, 27, 400},
        TpSweepCase{core::TpMode::k2p5d, 8, 2, 16, 12, 10, 500},
        TpSweepCase{core::TpMode::k2p5d, 12, 3, 18, 24, 8, 600},
        TpSweepCase{core::TpMode::k3d, 8, 1, 12, 16, 20, 700},
        TpSweepCase{core::TpMode::k3d, 27, 1, 27, 18, 36, 800}));
