// Half-precision wire tests: the f16/bf16 conversion kernels (exhaustive
// bit-pattern round trips, round-to-nearest-even ties, subnormals, infs, NaN
// preservation), the half-wire collective contract (rounded-oracle equality,
// cross-algorithm bit-identity, halved wire bytes, selector element floor),
// the engine/ZeRO integration (bucketed DP byte halving, NaN-consensus skip
// over a bf16 wire, bf16 checkpoint resume), and the fused softmax/LayerNorm
// kernels against their naive serial oracles.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "collective/backend.hpp"
#include "collective/cost.hpp"
#include "core/context.hpp"
#include "engine/engine.hpp"
#include "nn/layers.hpp"
#include "optim/optimizer.hpp"
#include "tensor/convert.hpp"
#include "tensor/half.hpp"
#include "tensor/ops.hpp"
#include "zero/zero_optimizer.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace col = ca::collective;
namespace core = ca::core;
namespace sim = ca::sim;
namespace tp = ca::tp;
namespace zero = ca::zero;
namespace engine = ca::engine;

namespace {

struct World {
  explicit World(core::Config cfg, double bw = 100e9)
      : cluster(sim::Topology::uniform(cfg.world_size(), bw)),
        backend(cluster),
        ctx(backend, cfg) {
    // Every test here passes its wire dtype explicitly (Group argument,
    // Engine::Options, ZeroOptimizer ctor), so pin the context-resolved
    // default: the fp32 control runs must stay fp32 under the
    // CA_COMM_DTYPE=bf16 CI sweep.
    ctx.set_comm_dtype(t::Dtype::kF32);
  }
  tp::Env env(int g) { return tp::Env{&ctx, g}; }

  sim::Cluster cluster;
  col::Backend backend;
  core::ParallelContext ctx;
};

std::vector<float> random_floats(std::int64_t n, std::uint32_t seed,
                                 float lo = -1.0f, float hi = 1.0f) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = dist(rng);
  return v;
}

}  // namespace

// ---- conversion kernels ------------------------------------------------------------

TEST(Halfwire, Bf16EveryBitPatternRoundTripsExactly) {
  // Widening is exact, so every non-NaN bf16 pattern — subnormals, ±0, ±inf
  // included — must survive fp32 -> bf16 unchanged; NaNs must stay NaN.
  for (std::uint32_t b = 0; b <= 0xFFFFu; ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    const float f = t::bf16_to_float(t::BFloat16{bits});
    if (std::isnan(f)) {
      ASSERT_TRUE(std::isnan(t::bf16_round_trip(f))) << "pattern " << b;
    } else {
      ASSERT_EQ(t::float_to_bf16(f).bits, bits) << "pattern " << b;
    }
  }
}

TEST(Halfwire, F16EveryBitPatternRoundTripsExactly) {
  for (std::uint32_t b = 0; b <= 0xFFFFu; ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    const float f = t::half_to_float(t::Half{bits});
    if (std::isnan(f)) {
      ASSERT_TRUE(std::isnan(t::fp16_round_trip(f))) << "pattern " << b;
    } else {
      ASSERT_EQ(t::float_to_half(f).bits, bits) << "pattern " << b;
    }
  }
}

TEST(Halfwire, RoundsHalfwayCasesToNearestEven) {
  // bf16 keeps 7 mantissa bits: 1 + 2^-8 is exactly halfway between 1 and
  // 1 + 2^-7 and must round down to the even mantissa (1.0); 1 + 3*2^-8 is
  // halfway between odd 1 + 2^-7 and even 1 + 2^-6 and must round up.
  EXPECT_EQ(t::bf16_round_trip(1.0f + 0x1p-8f), 1.0f);
  EXPECT_EQ(t::bf16_round_trip(1.0f + 0x3p-8f), 1.0f + 0x1p-6f);
  // f16 keeps 10 mantissa bits: same ties one scale down.
  EXPECT_EQ(t::fp16_round_trip(1.0f + 0x1p-11f), 1.0f);
  EXPECT_EQ(t::fp16_round_trip(1.0f + 0x3p-11f), 1.0f + 0x1p-9f);
  // Non-tie residues round to nearest regardless of parity.
  EXPECT_EQ(t::bf16_round_trip(1.0f + 0x1.8p-8f), 1.0f + 0x1p-7f);
  EXPECT_EQ(t::fp16_round_trip(1.0f + 0x1.8p-11f), 1.0f + 0x1p-10f);
}

TEST(Halfwire, SubnormalsSaturationAndInfs) {
  // Smallest f16 subnormal is exactly representable; a quarter of it (below
  // the rounding halfway point) flushes to zero with the sign kept.
  EXPECT_EQ(t::fp16_round_trip(0x1p-24f), 0x1p-24f);
  EXPECT_EQ(t::fp16_round_trip(0x1p-26f), 0.0f);
  EXPECT_TRUE(std::signbit(t::fp16_round_trip(-0x1p-26f)));
  // f16 max is 65504; 65520 is halfway to the next step and rounds to inf.
  EXPECT_EQ(t::fp16_round_trip(65504.0f), 65504.0f);
  EXPECT_EQ(t::fp16_round_trip(65520.0f),
            std::numeric_limits<float>::infinity());
  // bf16 covers the fp32 exponent range: its smallest subnormal (2^-133) is
  // exact, and FLT_MAX rounds up past the bf16 max into inf.
  EXPECT_EQ(t::bf16_round_trip(0x1p-133f), 0x1p-133f);
  EXPECT_EQ(t::bf16_round_trip(std::numeric_limits<float>::max()),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(t::bf16_round_trip(std::numeric_limits<float>::infinity()),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(t::bf16_round_trip(-std::numeric_limits<float>::infinity()),
            -std::numeric_limits<float>::infinity());
}

TEST(Halfwire, NanSurvivesEveryWireFormat) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(t::bf16_round_trip(nan)));
  EXPECT_TRUE(std::isnan(t::fp16_round_trip(nan)));
  // A signaling-NaN payload must quiet, not round up into infinity.
  const float snan = std::numeric_limits<float>::signaling_NaN();
  EXPECT_TRUE(std::isnan(t::bf16_round_trip(snan)));
  EXPECT_TRUE(std::isnan(t::fp16_round_trip(snan)));

  // The bulk dispatch kernel: kF32 is the identity, halves round-trip.
  const std::vector<float> src{1.0f, nan, 0x1p-26f, 65520.0f};
  std::vector<float> dst(src.size());
  t::wire_round_trip(t::Dtype::kF32, src.data(), dst.data(), 4);
  EXPECT_EQ(dst[0], src[0]);
  EXPECT_TRUE(std::isnan(dst[1]));
  EXPECT_EQ(dst[2], src[2]);
  EXPECT_EQ(dst[3], src[3]);
  t::wire_round_trip(t::Dtype::kBF16, src.data(), dst.data(), 4);
  EXPECT_TRUE(std::isnan(dst[1]));
  EXPECT_EQ(dst[0], 1.0f);
  t::wire_round_trip(t::Dtype::kF16, src.data(), dst.data(), 4);
  EXPECT_TRUE(std::isnan(dst[1]));
  EXPECT_EQ(dst[2], 0.0f);
  EXPECT_EQ(dst[3], std::numeric_limits<float>::infinity());
}

// ---- half-wire collectives ---------------------------------------------------------

TEST(Halfwire, Bf16AllReduceMatchesRoundedOracle) {
  // Contract: inputs are rounded through the wire on pack, the fold runs in
  // fp32 ascending member order, scale fuses into copy-out, and the result
  // is rounded through the wire once. Bit-exact against that oracle.
  const int n = 4;
  const std::int64_t elems = 257;  // odd, to exercise chunk tails
  const float scale = 0.25f;
  core::Config cfg;
  cfg.data_parallel_size = n;
  World w(cfg);
  std::vector<std::vector<float>> bufs;
  for (int r = 0; r < n; ++r)
    bufs.push_back(random_floats(elems, 100 + static_cast<std::uint32_t>(r)));

  std::vector<float> want(static_cast<std::size_t>(elems));
  for (std::int64_t i = 0; i < elems; ++i) {
    float acc = 0.0f;
    for (int r = 0; r < n; ++r)
      acc += t::bf16_round_trip(bufs[static_cast<std::size_t>(r)]
                                    [static_cast<std::size_t>(i)]);
    want[static_cast<std::size_t>(i)] = t::bf16_round_trip(acc * scale);
  }

  w.cluster.run([&](int g) {
    w.backend.world().all_reduce(g, bufs[static_cast<std::size_t>(g)], scale,
                                 t::Dtype::kBF16);
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ(bufs[static_cast<std::size_t>(r)], want);
}

TEST(Halfwire, F16AllReduceMatchesRoundedOracle) {
  const int n = 3;
  const std::int64_t elems = 130;
  core::Config cfg;
  cfg.data_parallel_size = n;
  World w(cfg);
  std::vector<std::vector<float>> bufs;
  for (int r = 0; r < n; ++r)
    bufs.push_back(random_floats(elems, 200 + static_cast<std::uint32_t>(r)));

  std::vector<float> want(static_cast<std::size_t>(elems));
  for (std::int64_t i = 0; i < elems; ++i) {
    float acc = 0.0f;
    for (int r = 0; r < n; ++r)
      acc += t::fp16_round_trip(bufs[static_cast<std::size_t>(r)]
                                    [static_cast<std::size_t>(i)]);
    want[static_cast<std::size_t>(i)] = t::fp16_round_trip(acc);
  }

  w.cluster.run([&](int g) {
    w.backend.world().all_reduce(g, bufs[static_cast<std::size_t>(g)], 1.0f,
                                 t::Dtype::kF16);
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ(bufs[static_cast<std::size_t>(r)], want);
}

TEST(Halfwire, Bf16ResultBitIdenticalAcrossAlgorithms) {
  // The wire rounding happens outside the schedule engine (pack on publish,
  // one rounding on copy-out), so forcing any algorithm family must produce
  // the same bits — the half-wire extension of the DESIGN.md section 6
  // canonical-fold guarantee.
  const int n = 8;
  const std::int64_t elems = 513;
  std::vector<int> ranks(n);
  for (int r = 0; r < n; ++r) ranks[static_cast<std::size_t>(r)] = r;

  auto run = [&](col::Algo algo) {
    sim::Cluster cluster(sim::Topology::uniform(n, 100e9));
    col::AlgoPolicy policy{algo};
    col::Group g(cluster, ranks, "g", &policy);
    std::vector<std::vector<float>> bufs;
    for (int r = 0; r < n; ++r)
      bufs.push_back(random_floats(elems, 300 + static_cast<std::uint32_t>(r),
                                   -4.0f, 4.0f));
    cluster.run([&](int rank) {
      g.all_reduce(rank, bufs[static_cast<std::size_t>(rank)], 1.0f,
                   t::Dtype::kBF16);
    });
    return bufs;
  };

  const auto want = run(col::Algo::kChunked);
  for (col::Algo algo : {col::Algo::kRing, col::Algo::kHierarchical,
                         col::Algo::kSingleRoot}) {
    const auto got = run(algo);
    for (int r = 0; r < n; ++r)
      EXPECT_EQ(got[static_cast<std::size_t>(r)],
                want[static_cast<std::size_t>(r)])
          << "algo " << col::algo_name(algo) << " rank " << r;
  }
}

TEST(Halfwire, HalfWireHalvesAllReduceBytes) {
  // Same element count, same algorithm (both payloads sit in the chunked
  // window): the modeled per-rank interconnect traffic must halve exactly.
  const int n = 4;
  const std::int64_t elems = 4096;
  auto bytes_with = [&](t::Dtype wire) {
    core::Config cfg;
    cfg.data_parallel_size = n;
    World w(cfg);
    std::vector<std::vector<float>> bufs(
        static_cast<std::size_t>(n),
        std::vector<float>(static_cast<std::size_t>(elems), 1.0f));
    w.cluster.run([&](int g) {
      w.backend.world().all_reduce(g, bufs[static_cast<std::size_t>(g)], 1.0f,
                                   wire);
    });
    return w.cluster.device(0).bytes_sent();
  };
  const auto f32 = bytes_with(t::Dtype::kF32);
  const auto bf16 = bytes_with(t::Dtype::kBF16);
  const auto f16 = bytes_with(t::Dtype::kF16);
  EXPECT_GT(bf16, 0);
  EXPECT_EQ(f32, 2 * bf16);
  EXPECT_EQ(bf16, f16);
}

TEST(Halfwire, SelectorSmallMessageFloorScalesWithElementWidth) {
  // Regression for the hardcoded 4-byte element size: the single-root floor
  // guards the n < P degenerate case (empty ownership chunks), so it must be
  // an *element* floor. 599 elements on 600 ranks is small at any width;
  // 700 elements is not — even though 700 bf16 elements (1400 bytes) would
  // sit under the old 4-byte floor of 2400 bytes.
  const int n = 600;
  core::Config cfg;
  cfg.data_parallel_size = n;
  World w(cfg);
  auto& world = w.backend.world();
  EXPECT_EQ(world.algo_for(col::Op::kAllReduce, 599 * 2, 2),
            col::Algo::kSingleRoot);
  EXPECT_EQ(world.algo_for(col::Op::kAllReduce, 700 * 2, 2),
            col::Algo::kChunked);
  EXPECT_EQ(world.algo_for(col::Op::kAllReduce, 599 * 4, 4),
            col::Algo::kSingleRoot);
  EXPECT_EQ(world.algo_for(col::Op::kAllReduce, 700 * 4, 4),
            col::Algo::kChunked);
}

// ---- engine / ZeRO integration -----------------------------------------------------

TEST(Halfwire, BucketedDpBf16HalvesGradSyncBytes) {
  // Pure data parallelism: the only interconnect traffic in a step is the
  // bucketed gradient all-reduce, so total bytes must halve on a bf16 wire
  // (the bucket boundaries themselves are fp32-sized, hence identical).
  auto bytes_with = [&](t::Dtype wire) {
    core::Config cfg;
    cfg.data_parallel_size = 2;
    World w(cfg);
    auto x = t::randn(t::Shape{8, 64}, 41);
    std::vector<std::int64_t> labels{0, 1, 2, 3, 4, 5, 6, 7};
    w.cluster.run([&](int g) {
      nn::Linear model("m", 64, 64, 42);
      engine::Engine::Options opts;
      opts.comm_dtype = wire;
      auto eng = engine::initialize(
          w.env(g), model,
          std::make_unique<ca::optim::Adam>(model.parameters(),
                                            ca::optim::Adam::Hyper{}),
          opts);
      eng->zero_grad();
      auto out = eng->forward(x);
      eng->criterion(out, labels);
      eng->backward();
      eng->step();
    });
    return w.cluster.device(0).bytes_sent();
  };
  const auto f32 = bytes_with(t::Dtype::kF32);
  const auto bf16 = bytes_with(t::Dtype::kBF16);
  EXPECT_GT(bf16, 0);
  EXPECT_EQ(f32, 2 * bf16);
}

TEST(Halfwire, NanConsensusSkipFiresOverBf16Wire) {
  // One rank's NaN gradient must poison the *reduced* gradient on every rank
  // — through the pack rounding, the fp32 fold, and the copy-out rounding —
  // so the guard skips the step symmetrically. This is why the conversions
  // are NaN-preserving.
  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  auto x = t::randn(t::Shape{4, 6}, 51);
  std::vector<std::int64_t> labels{0, 1, 2, 0};
  std::array<std::int64_t, 2> skipped{};
  std::vector<t::Tensor> before(2), after(2);
  w.cluster.run([&](int g) {
    nn::Linear model("m", 6, 3, 52);
    engine::Engine::Options opts;
    opts.grad_sync = engine::Engine::Options::GradSync::kSerial;
    opts.nan_guard = true;
    opts.comm_dtype = t::Dtype::kBF16;
    auto eng = engine::initialize(
        w.env(g), model,
        std::make_unique<ca::optim::Adam>(model.parameters(),
                                          ca::optim::Adam::Hyper{}),
        opts);
    before[static_cast<std::size_t>(g)] = model.weight().value.clone();
    eng->zero_grad();
    auto out = eng->forward(x);
    eng->criterion(out, labels);
    eng->backward();
    if (g == 0)
      model.weight().grad[0] = std::numeric_limits<float>::quiet_NaN();
    eng->step();
    skipped[static_cast<std::size_t>(g)] = eng->skipped_steps();
    after[static_cast<std::size_t>(g)] = model.weight().value.clone();
  });
  EXPECT_EQ(skipped, (std::array<std::int64_t, 2>{1, 1}));
  for (int g = 0; g < 2; ++g) {
    EXPECT_EQ(t::max_diff(after[static_cast<std::size_t>(g)],
                          before[static_cast<std::size_t>(g)]),
              0.0f)
        << "rank " << g << " stepped through a NaN";
  }
}

TEST(Halfwire, ZeroBf16CheckpointResumesBitIdentically) {
  // ZeRO over a bf16 wire: checkpoint traffic stays exact fp32, so a
  // save/restore mid-run rejoins the uninterrupted bf16 trajectory exactly.
  const int p = 2;
  auto x = t::randn(t::Shape{6, 4}, 61);
  std::vector<std::int64_t> labels{0, 1, 2, 0, 1, 2};
  auto train_steps = [&](zero::ZeroOptimizer& opt, nn::Linear& model, int from,
                         int to) {
    for (int s = from; s < to; ++s) {
      opt.gather_params();
      opt.zero_grad();
      auto logits = model.forward(x);
      t::Tensor dl;
      t::cross_entropy(logits, labels, dl);
      model.backward(dl);
      opt.step();
    }
  };

  // uninterrupted: 4 steps
  std::vector<t::Tensor> want(p);
  {
    core::Config cfg;
    cfg.data_parallel_size = p;
    World w(cfg);
    w.cluster.run([&](int g) {
      nn::Linear model("m", 4, 3, 62);
      zero::ZeroOptimizer opt(w.env(g), w.ctx.data_group(g),
                              model.parameters(), {}, /*stage=*/2,
                              t::Dtype::kBF16);
      train_steps(opt, model, 0, 4);
      opt.gather_params();
      want[static_cast<std::size_t>(g)] = model.weight().value.clone();
    });
  }
  // interrupted: 2 steps, checkpoint, fresh world, restore, 2 more
  std::vector<std::string> blobs(p);
  {
    core::Config cfg;
    cfg.data_parallel_size = p;
    World w(cfg);
    w.cluster.run([&](int g) {
      nn::Linear model("m", 4, 3, 62);
      zero::ZeroOptimizer opt(w.env(g), w.ctx.data_group(g),
                              model.parameters(), {}, 2, t::Dtype::kBF16);
      train_steps(opt, model, 0, 2);
      std::ostringstream os;
      opt.save_state(os);
      blobs[static_cast<std::size_t>(g)] = os.str();
    });
  }
  EXPECT_EQ(blobs[0], blobs[1]);  // world-size-agnostic full form
  std::vector<t::Tensor> got(p);
  {
    core::Config cfg;
    cfg.data_parallel_size = p;
    World w(cfg);
    w.cluster.run([&](int g) {
      nn::Linear model("m", 4, 3, 62);
      zero::ZeroOptimizer opt(w.env(g), w.ctx.data_group(g),
                              model.parameters(), {}, 2, t::Dtype::kBF16);
      std::istringstream is(blobs[0]);
      opt.load_state(is);
      train_steps(opt, model, 2, 4);
      opt.gather_params();
      got[static_cast<std::size_t>(g)] = model.weight().value.clone();
    });
  }
  for (int g = 0; g < p; ++g) {
    EXPECT_EQ(t::max_diff(got[static_cast<std::size_t>(g)],
                          want[static_cast<std::size_t>(g)]),
              0.0f)
        << "rank " << g;
  }
}

// ---- fused kernels vs naive oracles ------------------------------------------------

TEST(Halfwire, FusedScaledSoftmaxMatchesNaiveOracle) {
  const float scale = 0.125f;
  auto x = t::randn(t::Shape{33, 77}, 71, 0.0f, 3.0f);
  auto fused = t::softmax_lastdim_scaled(x, scale);
  auto naive = t::naive_softmax_lastdim(t::mul_scalar(x, scale));
  EXPECT_LT(t::max_diff(fused, naive), 1e-6f);
  // Rows still sum to one.
  auto pf = fused.data();
  for (std::int64_t r = 0; r < 33; ++r) {
    float s = 0.0f;
    for (std::int64_t c = 0; c < 77; ++c) s += pf[r * 77 + c];
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
  // Unscaled entry point is the scale == 1 special case.
  EXPECT_LT(t::max_diff(t::softmax_lastdim(x), t::naive_softmax_lastdim(x)),
            1e-6f);

  auto dy = t::randn(t::Shape{33, 77}, 72);
  auto dx_fused = t::softmax_backward_scaled(fused, dy, scale);
  auto dx_naive = t::mul_scalar(t::naive_softmax_backward(fused, dy), scale);
  EXPECT_LT(t::max_diff(dx_fused, dx_naive), 1e-6f);
  EXPECT_LT(t::max_diff(t::softmax_backward(fused, dy),
                        t::naive_softmax_backward(fused, dy)),
            1e-6f);
}

TEST(Halfwire, FusedLayerNormMatchesNaiveOracle) {
  const std::int64_t rows = 37, h = 129;
  const float eps = 1e-5f;
  auto x = t::randn(t::Shape{rows, h}, 81, 0.5f, 2.0f);
  auto gamma = t::randn(t::Shape{h}, 82, 1.0f, 0.2f);
  auto beta = t::randn(t::Shape{h}, 83, 0.0f, 0.2f);

  t::Tensor mean_f, rstd_f, mean_n, rstd_n;
  auto y_fused = t::layernorm_forward(x, gamma, beta, eps, mean_f, rstd_f);
  auto y_naive = t::naive_layernorm_forward(x, gamma, beta, eps, mean_n,
                                            rstd_n);
  EXPECT_LT(t::max_diff(y_fused, y_naive), 1e-5f);
  EXPECT_LT(t::max_diff(mean_f, mean_n), 1e-6f);
  EXPECT_LT(t::max_diff(rstd_f, rstd_n), 1e-4f);

  auto dy = t::randn(t::Shape{rows, h}, 84);
  t::Tensor dg_f(t::Shape{h}, 0.0f), db_f(t::Shape{h}, 0.0f);
  t::Tensor dg_n(t::Shape{h}, 0.0f), db_n(t::Shape{h}, 0.0f);
  auto dx_fused =
      t::layernorm_backward(x, dy, gamma, mean_f, rstd_f, dg_f, db_f);
  auto dx_naive =
      t::naive_layernorm_backward(x, dy, gamma, mean_n, rstd_n, dg_n, db_n);
  EXPECT_LT(t::max_diff(dx_fused, dx_naive), 1e-5f);
  EXPECT_LT(t::max_diff(dg_f, dg_n), 1e-4f);
  EXPECT_LT(t::max_diff(db_f, db_n), 1e-4f);
}
