// Integration tests across data / models / engine: the Listing-1 training
// loop, data-parallel equivalence, trainer hooks, and the Figure 7 property
// — every tensor-parallel mode reproduces the serial training trajectory
// exactly on identical data.

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "engine/engine.hpp"
#include "engine/trainer.hpp"
#include "models/classifier.hpp"
#include "models/configs.hpp"
#include "models/vit.hpp"
#include "tp_case_name.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;
namespace models = ca::models;
namespace data = ca::data;
namespace engine = ca::engine;

namespace {

struct World {
  World(core::Config cfg, double bw = 100e9)
      : cluster(sim::Topology::uniform(cfg.world_size(), bw)),
        backend(cluster),
        ctx(backend, cfg) {
    // Serial-equivalence suite: pin the wire to fp32 (see DESIGN.md §10).
    ctx.set_comm_dtype(ca::tensor::Dtype::kF32);
  }
  tp::Env env(int g) { return tp::Env{&ctx, g}; }

  sim::Cluster cluster;
  col::Backend backend;
  core::ParallelContext ctx;
};

core::Config tp_cfg(core::TpMode mode, int size, int depth = 1) {
  core::Config cfg;
  cfg.tensor_parallel_size = size;
  cfg.tensor_mode = mode;
  cfg.tensor_depth = depth;
  return cfg;
}

}  // namespace

// ---- data ------------------------------------------------------------------------

TEST(Data, DeterministicAndClassStructured) {
  data::SyntheticClassification ds(128, 8, 4, 7);
  auto a = ds.batch_features(0, 16);
  auto b = ds.batch_features(0, 16);
  EXPECT_EQ(t::max_diff(a, b), 0.0f);
  auto labels = ds.batch_labels(0, 8);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[5], 1);  // idx 5 % 4
}

TEST(Data, TokensInVocabAndSkewed) {
  data::SyntheticTokens toks(1000, 3);
  auto ids = toks.tokens(0, 5000);
  std::int64_t low = 0;
  for (auto id : ids) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, 1000);
    if (id < 250) ++low;
  }
  // z^2 skew: P(id < 250) = P(z < 0.5) = 0.5, far above the uniform 0.25
  EXPECT_GT(low, 2000);
}

TEST(Data, LoaderShardsBatchesAcrossRanks) {
  data::SyntheticClassification ds(64, 4, 2, 9);
  data::DataLoader l0(ds, 8, /*dp_rank=*/0, /*dp_size=*/2);
  data::DataLoader l1(ds, 8, 1, 2);
  EXPECT_EQ(l0.local_batch(), 4);
  auto b0 = l0.next(0);
  auto b1 = l1.next(0);
  // together they cover the global batch: rank1 starts where rank0 ends
  auto full = ds.batch_features(0, 8);
  EXPECT_EQ(t::max_diff(b0.x, t::narrow(full, 0, 0, 4)), 0.0f);
  EXPECT_EQ(t::max_diff(b1.x, t::narrow(full, 0, 4, 4)), 0.0f);
}

// ---- Figure 7: convergence equivalence of all TP modes -----------------------------

namespace {

std::vector<float> serial_trajectory(int steps) {
  models::Classifier::Config mc{8, 16, 8, 1, 5};
  models::Classifier model(mc);
  data::SyntheticClassification ds(4096, 8, 8, 77);
  return models::train_trajectory(model, ds, 16, steps, 0.05f);
}

std::vector<float> parallel_trajectory(core::TpMode mode, int size, int depth,
                                       int steps) {
  World w(tp_cfg(mode, size, depth));
  models::Classifier::Config mc{8, 16, 8, 1, 5};
  data::SyntheticClassification ds(4096, 8, 8, 77);
  std::vector<std::vector<float>> losses(static_cast<std::size_t>(size));
  w.cluster.run([&](int g) {
    models::Classifier model(w.env(g), mc);
    losses[static_cast<std::size_t>(g)] =
        models::train_trajectory(model, ds, 16, steps, 0.05f);
  });
  // all ranks must agree on every step loss
  for (int g = 1; g < size; ++g)
    for (int s = 0; s < steps; ++s)
      EXPECT_NEAR(losses[0][static_cast<std::size_t>(s)],
                  losses[static_cast<std::size_t>(g)][static_cast<std::size_t>(s)],
                  1e-4f);
  return losses[0];
}

}  // namespace

struct ConvergenceCase {
  core::TpMode mode;
  int size;
  int depth;
};

// Names each case in test listings (e.g. "2d_p4_d1") instead of a byte dump.
void PrintTo(const ConvergenceCase& c, std::ostream* os) {
  *os << tp_case_name(c.mode, c.size, c.depth);
}

class ConvergenceEquivalence : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(ConvergenceEquivalence, TrajectoryMatchesSerial) {
  const auto c = GetParam();
  const int steps = 6;
  auto ref = serial_trajectory(steps);
  auto par = parallel_trajectory(c.mode, c.size, c.depth, steps);
  for (int s = 0; s < steps; ++s) {
    EXPECT_NEAR(ref[static_cast<std::size_t>(s)],
                par[static_cast<std::size_t>(s)], 2e-3f)
        << "step " << s << " mode " << core::to_string(c.mode);
  }
  // and training actually learns something
  EXPECT_LT(ref.back(), ref.front());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ConvergenceEquivalence,
    ::testing::Values(ConvergenceCase{core::TpMode::k1d, 2, 1},
                      ConvergenceCase{core::TpMode::k1d, 4, 1},
                      ConvergenceCase{core::TpMode::k2d, 4, 1},
                      ConvergenceCase{core::TpMode::k2p5d, 8, 2},
                      ConvergenceCase{core::TpMode::k3d, 8, 1}));

// ---- ViT: serial vs 1D vs sequence parallel ------------------------------------------

TEST(Vit, TensorParallelLogitsMatchSerial) {
  models::VitClassifier::Config vc;
  vc.seed = 3;
  models::VitClassifier serial(vc);
  auto x = t::randn(t::Shape{2, vc.patches, vc.patch_dim}, 4);
  auto ref = serial.logits(x);

  World w(tp_cfg(core::TpMode::k1d, 2));
  std::vector<t::Tensor> lg(2);
  w.cluster.run([&](int g) {
    models::VitClassifier model(w.env(g), vc);
    lg[static_cast<std::size_t>(g)] = model.logits(x);
  });
  EXPECT_TRUE(t::allclose(lg[0], ref, 1e-3f));
  EXPECT_TRUE(t::allclose(lg[1], ref, 1e-3f));
}

TEST(Vit, SequenceParallelTrainStepMatchesSerial) {
  models::VitClassifier::Config vc;
  vc.seed = 13;
  auto x = t::randn(t::Shape{2, vc.patches, vc.patch_dim}, 14);
  std::vector<std::int64_t> labels{1, 7};

  models::VitClassifier serial(vc);
  const float ref_loss = serial.train_batch(x, labels);

  core::Config cfg;
  cfg.sequence_parallel_size = 4;
  World w(cfg);
  std::vector<float> loss(4);
  std::vector<t::Tensor> head_grad(4);
  w.cluster.run([&](int g) {
    models::VitClassifier model(w.env(g), vc);
    loss[static_cast<std::size_t>(g)] = model.train_batch(x, labels);
    auto params = model.parameters();
    head_grad[static_cast<std::size_t>(g)] = params.back()->grad.clone();
  });
  auto ref_head_grad = serial.parameters().back()->grad;
  for (int g = 0; g < 4; ++g) {
    EXPECT_NEAR(loss[static_cast<std::size_t>(g)], ref_loss, 1e-4f) << g;
    EXPECT_TRUE(t::allclose(head_grad[static_cast<std::size_t>(g)],
                            ref_head_grad, 1e-3f))
        << g;
  }
}

// ---- engine & trainer -----------------------------------------------------------------

TEST(Engine, ListingOneLoopTrains) {
  core::Config cfg;  // single rank
  World w(cfg);
  data::SyntheticClassification ds(512, 8, 4, 21);

  w.cluster.run([&](int g) {
    (void)g;
    nn::Sequential net;
    net.add(std::make_unique<nn::Linear>("l1", 8, 16, 31));
    net.add(std::make_unique<nn::Gelu>());
    net.add(std::make_unique<nn::Linear>("l2", 16, 4, 32));
    auto eng = engine::initialize(
        w.env(0), net,
        std::make_unique<ca::optim::Adam>(net.parameters(),
                                          ca::optim::Adam::Hyper{0.01f}));
    float first = 0.0f, last = 0.0f;
    for (int s = 0; s < 30; ++s) {
      auto x = ds.batch_features(s * 16, 16);
      auto y = ds.batch_labels(s * 16, 16);
      eng->zero_grad();
      auto out = eng->forward(x);
      const float loss = eng->criterion(out, y);
      eng->backward();
      eng->step();
      if (s == 0) first = loss;
      last = loss;
    }
    EXPECT_LT(last, first * 0.8f);
  });
}

TEST(Engine, DataParallelMatchesSerialFullBatch) {
  // 2 DP ranks on half batches each == serial on the full batch (mean CE
  // gradients average across ranks).
  data::SyntheticClassification ds(512, 6, 3, 41);
  const std::int64_t global_batch = 8;

  // serial reference
  nn::Linear serial("m", 6, 3, 42);
  ca::optim::Sgd sref(serial.parameters(), 0.1f);
  {
    auto x = ds.batch_features(0, global_batch);
    auto y = ds.batch_labels(0, global_batch);
    t::Tensor dl;
    auto out = serial.forward(x);
    t::cross_entropy(out, y, dl);
    serial.backward(dl);
    sref.step();
  }

  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  std::vector<t::Tensor> weights(2);
  w.cluster.run([&](int g) {
    nn::Linear model("m", 6, 3, 42);
    auto eng = engine::initialize(
        w.env(g), model,
        std::make_unique<ca::optim::Sgd>(model.parameters(), 0.1f));
    data::DataLoader loader(ds, global_batch, g, 2);
    auto batch = loader.next(0);
    eng->zero_grad();
    auto out = eng->forward(batch.x);
    eng->criterion(out, batch.labels);
    eng->backward();
    eng->step();
    weights[static_cast<std::size_t>(g)] = model.weight().value.clone();
  });
  EXPECT_TRUE(t::allclose(weights[0], serial.weight().value, 1e-5f));
  EXPECT_TRUE(t::allclose(weights[1], serial.weight().value, 1e-5f));
}

TEST(Trainer, HooksFireAndLossRecorded) {
  core::Config cfg;
  World w(cfg);
  data::SyntheticClassification ds(256, 6, 3, 51);
  w.cluster.run([&](int g) {
    (void)g;
    nn::Sequential net;
    net.add(std::make_unique<nn::Linear>("l", 6, 3, 52));
    auto eng = engine::initialize(
        w.env(0), net,
        std::make_unique<ca::optim::Sgd>(net.parameters(), 0.1f));
    engine::Trainer trainer(*eng);
    auto& history =
        trainer.register_hook(std::make_unique<engine::LossHistoryHook>());

    struct CountingHook : engine::TrainerHook {
      int epochs = 0, steps = 0;
      void after_epoch(int, float) override { ++epochs; }
      void before_step(int) override { ++steps; }
    };
    auto& counter = trainer.register_hook(std::make_unique<CountingHook>());

    data::DataLoader loader(ds, 8, 0, 1);
    const float mean = trainer.fit(loader, /*epochs=*/2, /*steps=*/4);
    EXPECT_EQ(counter.epochs, 2);
    EXPECT_EQ(counter.steps, 8);
    EXPECT_EQ(history.losses().size(), 8u);
    EXPECT_GT(mean, 0.0f);
  });
}

// ---- ZeRO engine: the Listing-1 loop over sharded model states ----------------------

#include "engine/zero_engine.hpp"

namespace {

/// Serial reference for the ZeRO-engine runs: Adam on the full batch.
t::Tensor zero_engine_serial(int steps) {
  data::SyntheticClassification ds(512, 6, 3, 61);
  nn::Linear model("m", 6, 3, 62);
  ca::optim::Adam opt(model.parameters(), {});
  for (int s = 0; s < steps; ++s) {
    auto x = ds.batch_features(s * 8, 8);
    auto y = ds.batch_labels(s * 8, 8);
    opt.zero_grad();
    auto out = model.forward(x);
    t::Tensor dl;
    t::cross_entropy(out, y, dl);
    model.backward(dl);
    opt.step();
  }
  return model.weight().value.clone();
}

}  // namespace

class ZeroEngineStage : public ::testing::TestWithParam<int> {};

TEST_P(ZeroEngineStage, ListingLoopMatchesSerialAdam) {
  const int stage = GetParam();
  const int steps = 3;
  auto ref = zero_engine_serial(steps);

  // 2 DP ranks, each seeing the FULL batch (average=true divides the 2x sum)
  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  data::SyntheticClassification ds(512, 6, 3, 61);
  std::vector<t::Tensor> weights(2);
  w.cluster.run([&](int g) {
    nn::Linear model("m", 6, 3, 62);
    engine::ZeroEngine eng(w.env(g), model, {}, stage);
    for (int s = 0; s < steps; ++s) {
      auto x = ds.batch_features(s * 8, 8);
      auto y = ds.batch_labels(s * 8, 8);
      eng.zero_grad();
      auto out = eng.forward(x);
      eng.criterion(out, y);
      eng.backward();
      eng.step();
    }
    // read back the final full parameters
    eng.optimizer().gather_params();
    weights[static_cast<std::size_t>(g)] = model.weight().value.clone();
  });
  EXPECT_TRUE(t::allclose(weights[0], ref, 1e-5f)) << "stage " << stage;
  EXPECT_TRUE(t::allclose(weights[1], ref, 1e-5f)) << "stage " << stage;
}

INSTANTIATE_TEST_SUITE_P(Stages, ZeroEngineStage, ::testing::Values(1, 2, 3));

TEST(ZeroEngineStage, Stage3HidesParamsOutsideWindow) {
  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  w.cluster.run([&](int g) {
    nn::Linear model("m", 4, 4, 71);
    engine::ZeroEngine eng(w.env(g), model, {}, 3);
    EXPECT_EQ(model.weight().value.numel(), 0);  // sharded away
    auto x = t::randn(t::Shape{2, 4}, 72);
    auto out = eng.forward(x);  // gathered inside the window
    EXPECT_EQ(model.weight().value.numel(), 16);
    std::vector<std::int64_t> y{0, 1};
    eng.criterion(out, y);
    eng.backward();
    eng.step();
    EXPECT_EQ(model.weight().value.numel(), 0);  // released again
  });
}

TEST(Engine, BucketedDpMatchesSingleRankTrajectoryExactly) {
  // 4 DP ranks each training on the FULL batch with averaged gradients must
  // reproduce the single-rank loss trajectory bit-for-bit: the bucketed
  // async all-reduce averages 4 identical gradients (sum * 1/4 is exact in
  // binary), so weights never diverge.
  const int steps = 6;
  const int world = 4;
  data::SyntheticClassification ds(512, 8, 4, 71);

  auto run_single = [&]() {
    std::vector<float> losses;
    nn::Sequential net;
    net.add(std::make_unique<nn::Linear>("l1", 8, 16, 72));
    net.add(std::make_unique<nn::Gelu>());
    net.add(std::make_unique<nn::Linear>("l2", 16, 4, 73));
    core::Config cfg;  // single rank
    World w(cfg);
    w.cluster.run([&](int g) {
      (void)g;
      auto eng = engine::initialize(
          w.env(0), net,
          std::make_unique<ca::optim::Adam>(net.parameters(),
                                            ca::optim::Adam::Hyper{0.01f}));
      for (int s = 0; s < steps; ++s) {
        auto x = ds.batch_features(s * 16, 16);
        auto y = ds.batch_labels(s * 16, 16);
        eng->zero_grad();
        auto out = eng->forward(x);
        losses.push_back(eng->criterion(out, y));
        eng->backward();
        eng->step();
      }
    });
    return losses;
  };
  const auto ref = run_single();

  core::Config cfg;
  cfg.data_parallel_size = world;
  World w(cfg);
  std::vector<std::vector<float>> losses(static_cast<std::size_t>(world));
  w.cluster.run([&](int g) {
    nn::Sequential net;
    net.add(std::make_unique<nn::Linear>("l1", 8, 16, 72));
    net.add(std::make_unique<nn::Gelu>());
    net.add(std::make_unique<nn::Linear>("l2", 16, 4, 73));
    engine::Engine::Options opts;  // bucketed is the default; force small
    opts.bucket_bytes = 256;       // buckets so several reduces are in flight
    auto eng = engine::initialize(
        w.env(g), net,
        std::make_unique<ca::optim::Adam>(net.parameters(),
                                          ca::optim::Adam::Hyper{0.01f}),
        opts);
    for (int s = 0; s < steps; ++s) {
      auto x = ds.batch_features(s * 16, 16);
      auto y = ds.batch_labels(s * 16, 16);
      eng->zero_grad();
      auto out = eng->forward(x);
      losses[static_cast<std::size_t>(g)].push_back(eng->criterion(out, y));
      eng->backward();
      eng->step();
    }
  });
  for (int g = 0; g < world; ++g) {
    ASSERT_EQ(losses[static_cast<std::size_t>(g)].size(), ref.size());
    for (int s = 0; s < steps; ++s) {
      // bit-identical, not just close
      ASSERT_EQ(losses[static_cast<std::size_t>(g)][static_cast<std::size_t>(s)],
                ref[static_cast<std::size_t>(s)])
          << "rank " << g << " step " << s;
    }
  }
}

TEST(Engine, BucketedAndSerialGradSyncProduceIdenticalWeights) {
  data::SyntheticClassification ds(512, 6, 3, 81);
  core::Config cfg;
  cfg.data_parallel_size = 2;

  auto run_mode = [&](engine::Engine::Options::GradSync mode) {
    World w(cfg);
    std::vector<t::Tensor> weights(2);
    w.cluster.run([&](int g) {
      nn::Sequential net;
      net.add(std::make_unique<nn::Linear>("m", 6, 3, 82));
      engine::Engine::Options opts;
      opts.grad_sync = mode;
      opts.bucket_bytes = 64;
      auto eng = engine::initialize(
          w.env(g), net,
          std::make_unique<ca::optim::Sgd>(net.parameters(), 0.1f), opts);
      data::DataLoader loader(ds, 8, g, 2);
      for (int s = 0; s < 4; ++s) {
        auto batch = loader.next(s);
        eng->zero_grad();
        auto out = eng->forward(batch.x);
        eng->criterion(out, batch.labels);
        eng->backward();
        eng->step();
      }
      auto params = net.parameters();
      weights[static_cast<std::size_t>(g)] = params[0]->value.clone();
    });
    EXPECT_EQ(t::max_diff(weights[0], weights[1]), 0.0f);
    return weights[0];
  };

  auto bucketed = run_mode(engine::Engine::Options::GradSync::kBucketed);
  auto serial = run_mode(engine::Engine::Options::GradSync::kSerial);
  EXPECT_EQ(t::max_diff(bucketed, serial), 0.0f);
}
