// ZeRO tests: sharded tensor lifecycle, stage 1/2/3 equivalence with serial
// Adam, checkpoint re-sharding across DP widths, chunk manager accounting,
// offload policies, and the Figure 14 dynamic-vs-static simulation.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "nn/layers.hpp"
#include "optim/optimizer.hpp"
#include "zero/chunk.hpp"
#include "zero/offload.hpp"
#include "zero/sharded_tensor.hpp"
#include "zero/zero_optimizer.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace zero = ca::zero;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;

namespace {

struct DpWorld {
  explicit DpWorld(int n, sim::Topology topo)
      : cluster(std::move(topo)), backend(cluster), ctx(backend, config(n)) {
    // Serial-equivalence suite: pin the wire to fp32 (see DESIGN.md §10).
    ctx.set_comm_dtype(ca::tensor::Dtype::kF32);
  }
  explicit DpWorld(int n) : DpWorld(n, sim::Topology::uniform(n, 100e9)) {}

  static core::Config config(int n) {
    core::Config cfg;
    cfg.data_parallel_size = n;
    return cfg;
  }
  tp::Env env(int g) { return tp::Env{&ctx, g}; }

  sim::Cluster cluster;
  col::Backend backend;
  core::ParallelContext ctx;
};

}  // namespace

// ---- ShardedTensor ---------------------------------------------------------------

TEST(ShardedTensor, GatherReconstructsFullValue) {
  const int p = 4;
  DpWorld w(p);
  auto full = t::randn(t::Shape{3, 7}, 5);  // 21 elements: uneven shards
  std::vector<t::Tensor> gathered(p);
  w.cluster.run([&](int g) {
    zero::ShardedTensor st("w", full, w.ctx.data_group(g), g);
    EXPECT_EQ(st.state(), zero::TensorState::kHold);
    gathered[g] = st.gather().clone();
    EXPECT_EQ(st.state(), zero::TensorState::kCompute);
    st.release();
    EXPECT_EQ(st.state(), zero::TensorState::kHold);
  });
  for (int g = 0; g < p; ++g) {
    EXPECT_EQ(t::max_diff(gathered[g], full), 0.0f) << g;
  }
}

TEST(ShardedTensor, ReleaseWritesBackUpdatedValues) {
  const int p = 2;
  DpWorld w(p);
  auto full = t::arange(8).reshape(t::Shape{2, 4});
  std::vector<t::Tensor> second(p);
  w.cluster.run([&](int g) {
    zero::ShardedTensor st("w", full, w.ctx.data_group(g), g);
    auto updated = t::mul_scalar(st.gather(), 2.0f);
    st.release(&updated);
    second[g] = st.gather().clone();
    st.release();
  });
  for (int g = 0; g < p; ++g)
    EXPECT_EQ(t::max_diff(second[g], t::mul_scalar(full, 2.0f)), 0.0f);
}

TEST(ShardedTensor, LifecycleHooksFire) {
  DpWorld w(2);
  auto full = t::ones(t::Shape{4});
  std::vector<int> transitions(2, 0);
  w.cluster.run([&](int g) {
    zero::LifecycleHooks hooks;
    hooks.on_state_change = [&, g](const std::string&, zero::TensorState,
                                   zero::TensorState) {
      ++transitions[static_cast<std::size_t>(g)];
    };
    zero::ShardedTensor st("w", full, w.ctx.data_group(g), g, hooks);
    st.gather();
    st.release();
  });
  EXPECT_EQ(transitions[0], 2);
  EXPECT_EQ(transitions[1], 2);
}

TEST(ShardingStrategy, PaddedEqualRanges) {
  // 10 elements over 4 ranks: padded chunk 3
  EXPECT_EQ(zero::shard_layout(10, 0, 4).size(), 3);
  EXPECT_EQ(zero::shard_layout(10, 2, 4).size(), 3);
  EXPECT_EQ(zero::shard_layout(10, 3, 4).size(), 1);  // tail
  EXPECT_EQ(zero::shard_layout(10, 3, 4).begin, 9);
}

// ---- ZeroOptimizer stage equivalence ------------------------------------------------

namespace {

/// Train a tiny model for `steps` with ZeRO at `stage` over `p` ranks; every
/// rank sees the same batch (average=true divides the p-fold sum back).
/// Returns rank 0's final full parameter value.
t::Tensor zero_train(int p, int stage, int steps) {
  DpWorld w(p);
  auto x = t::randn(t::Shape{6, 4}, 71);
  std::vector<std::int64_t> labels{0, 1, 2, 0, 1, 2};
  std::vector<t::Tensor> final_w(p);
  w.cluster.run([&](int g) {
    nn::Linear model("m", 4, 3, 72);
    zero::ZeroOptimizer opt(w.env(g), w.ctx.data_group(g), model.parameters(),
                            {}, stage);
    for (int s = 0; s < steps; ++s) {
      opt.gather_params();
      opt.zero_grad();
      auto logits = model.forward(stage == 3 ? x : x);
      t::Tensor dl;
      t::cross_entropy(logits, labels, dl);
      model.backward(dl);
      opt.step();
    }
    opt.gather_params();
    final_w[g] = model.parameters()[0]->value.clone();
  });
  for (int g = 1; g < p; ++g) {
    EXPECT_EQ(t::max_diff(final_w[0], final_w[g]), 0.0f)
        << "ranks disagree at stage " << stage;
  }
  return final_w[0];
}

t::Tensor serial_train(int steps) {
  auto x = t::randn(t::Shape{6, 4}, 71);
  std::vector<std::int64_t> labels{0, 1, 2, 0, 1, 2};
  nn::Linear model("m", 4, 3, 72);
  ca::optim::Adam opt(model.parameters(), {});
  for (int s = 0; s < steps; ++s) {
    opt.zero_grad();
    auto logits = model.forward(x);
    t::Tensor dl;
    t::cross_entropy(logits, labels, dl);
    model.backward(dl);
    opt.step();
  }
  return model.parameters()[0]->value.clone();
}

}  // namespace

class ZeroStageEquivalence : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ZeroStageEquivalence, MatchesSerialAdam) {
  const auto [p, stage] = GetParam();
  auto ref = serial_train(3);
  auto got = zero_train(p, stage, 3);
  EXPECT_TRUE(t::allclose(got, ref, 1e-5f, 1e-6f))
      << "p=" << p << " stage=" << stage
      << " maxdiff=" << t::max_diff(got, ref);
}

INSTANTIATE_TEST_SUITE_P(
    StagesAndWorlds, ZeroStageEquivalence,
    ::testing::Values(std::pair{2, 1}, std::pair{2, 2}, std::pair{2, 3},
                      std::pair{4, 1}, std::pair{4, 2}, std::pair{4, 3},
                      std::pair{3, 3}));

TEST(ZeroOptimizer, ModelStateBytesShrinkWithStage) {
  DpWorld w(4);
  std::vector<std::int64_t> bytes(4);
  w.cluster.run([&](int g) {
    if (g != 0) {
      // all ranks participate in construction collectives? construction has
      // no collectives; only rank 0 builds here.
    }
    nn::Linear model("m", 64, 64, 5);
    for (int stage : {1, 2, 3}) {
      zero::ZeroOptimizer opt(w.env(g), w.ctx.data_group(g),
                              model.parameters(), {}, stage);
      if (g == 0) bytes[static_cast<std::size_t>(stage)] = opt.model_state_bytes();
    }
  });
  EXPECT_GT(bytes[1], bytes[2]);
  EXPECT_GT(bytes[2], bytes[3]);
}

TEST(ZeroOptimizer, Stage3FreesFullParamsBetweenUses) {
  DpWorld w(2);
  w.cluster.run([&](int g) {
    nn::Linear model("m", 4, 4, 9);
    zero::ZeroOptimizer opt(w.env(g), w.ctx.data_group(g), model.parameters(),
                            {}, 3);
    EXPECT_EQ(model.parameters()[0]->value.numel(), 0);
    opt.gather_params();
    EXPECT_EQ(model.parameters()[0]->value.numel(), 16);
    opt.release_params();
    EXPECT_EQ(model.parameters()[0]->value.numel(), 0);
  });
}

// ---- checkpoint re-sharding across DP widths --------------------------------------

namespace {

/// Train an nn::Linear(5 -> 3) two steps under ZeRO at `stage` on dp4 (the
/// 15-element weight is ragged over 4 ranks, the 3-element bias smaller
/// than the group), save, and restore the bytes at dp3 and dp8, where some
/// members' chunks of the bias are empty. Every member must write the same
/// bytes, a re-save after the restore must reproduce them exactly, and the
/// restored parameters must equal the trained ones.
void check_reshard(int stage) {
  std::string saved;
  t::Tensor trained_w, trained_b;
  {
    const int p = 4;
    DpWorld w(p);
    std::vector<std::string> bytes(p);
    w.cluster.run([&](int g) {
      nn::Linear model("m", 5, 3, 81);
      zero::ZeroOptimizer opt(w.env(g), w.ctx.data_group(g),
                              model.parameters(), {}, stage);
      for (int s = 0; s < 2; ++s) {
        opt.gather_params();
        opt.zero_grad();
        const auto x = t::randn(t::Shape{4, 5},
                                static_cast<std::uint64_t>(90 + 10 * g + s));
        std::vector<std::int64_t> labels{0, 1, 2, g % 3};
        t::Tensor dl;
        t::cross_entropy(model.forward(x), labels, dl);
        model.backward(dl);
        opt.step();
      }
      std::ostringstream os;
      opt.save_state(os);
      bytes[static_cast<std::size_t>(g)] = os.str();
      opt.gather_params();
      if (g == 0) {
        trained_w = model.weight().value.clone();
        trained_b = model.parameters()[1]->value.clone();
      }
    });
    for (int g = 0; g < p; ++g) {
      EXPECT_EQ(bytes[static_cast<std::size_t>(g)], bytes[0])
          << "dp4 rank " << g;
    }
    saved = bytes[0];
  }
  for (const int p : {3, 8}) {
    SCOPED_TRACE("dp" + std::to_string(p));
    DpWorld w(p);
    std::vector<std::string> bytes(static_cast<std::size_t>(p));
    std::vector<t::Tensor> got_w(static_cast<std::size_t>(p));
    std::vector<t::Tensor> got_b(static_cast<std::size_t>(p));
    w.cluster.run([&](int g) {
      const auto gi = static_cast<std::size_t>(g);
      nn::Linear model("m", 5, 3, 82);  // other init: the restore must win
      zero::ZeroOptimizer opt(w.env(g), w.ctx.data_group(g),
                              model.parameters(), {}, stage);
      std::istringstream is(saved);
      opt.load_state(is);
      std::ostringstream os;
      opt.save_state(os);
      bytes[gi] = os.str();
      opt.gather_params();
      got_w[gi] = model.weight().value.clone();
      got_b[gi] = model.parameters()[1]->value.clone();
    });
    for (int g = 0; g < p; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      EXPECT_EQ(bytes[gi], saved) << "rank " << g;
      EXPECT_EQ(t::max_diff(got_w[gi], trained_w), 0.0f) << "rank " << g;
      EXPECT_EQ(t::max_diff(got_b[gi], trained_b), 0.0f) << "rank " << g;
    }
  }
}

}  // namespace

TEST(ZeroCheckpoint, ReshardsAcrossWidthsStage1) { check_reshard(1); }
TEST(ZeroCheckpoint, ReshardsAcrossWidthsStage2) { check_reshard(2); }
TEST(ZeroCheckpoint, ReshardsAcrossWidthsStage3) { check_reshard(3); }

// ---- chunks ---------------------------------------------------------------------------

TEST(ChunkManager, PacksAppendOnly) {
  DpWorld w(1);
  w.cluster.run([&](int g) {
    zero::ChunkManager cm(w.env(g), 100, zero::Placement::kHost);
    cm.append("a", 40);
    cm.append("b", 40);
    cm.append("c", 40);  // does not fit chunk 0 -> opens chunk 1
    EXPECT_EQ(cm.num_chunks(), 2u);
    EXPECT_EQ(cm.entry(0).chunk_id, 0);
    EXPECT_EQ(cm.entry(1).offset, 40);
    EXPECT_EQ(cm.entry(2).chunk_id, 1);
  });
}

TEST(ChunkManager, OversizedTensorGetsDedicatedChunk) {
  DpWorld w(1);
  w.cluster.run([&](int g) {
    zero::ChunkManager cm(w.env(g), 100, zero::Placement::kHost);
    cm.append("big", 250);
    cm.append("small", 10);
    EXPECT_EQ(cm.num_chunks(), 2u);
    EXPECT_EQ(cm.chunk(0).capacity_bytes, 250);
    EXPECT_EQ(cm.chunk(1).capacity_bytes, 100);
  });
}

TEST(ChunkManager, MoveChargesClockAndRetracksMemory) {
  DpWorld w(1);
  w.cluster.run([&](int g) {
    auto env = w.env(g);
    zero::ChunkManager cm(env, 1000, zero::Placement::kHost);
    cm.append("a", 1000);
    EXPECT_EQ(cm.host_bytes(), 1000);
    EXPECT_EQ(cm.device_bytes(), 0);
    const double before = env.dev().clock();
    cm.move_to(0, zero::Placement::kDevice);
    EXPECT_EQ(cm.device_bytes(), 1000);
    EXPECT_EQ(cm.host_bytes(), 0);
    const double bw = w.cluster.topology().host_link_bandwidth();
    const double expect = zero::ChunkManager::kMoveLatency + 1000.0 / bw;
    EXPECT_NEAR(env.dev().clock() - before, expect, 1e-12);
    cm.move_to(0, zero::Placement::kDevice);  // already there: free
    EXPECT_NEAR(env.dev().clock() - before, expect, 1e-12);
  });
}

TEST(ChunkManager, Fp16ReuseFlagsFlip) {
  DpWorld w(1);
  w.cluster.run([&](int g) {
    zero::ChunkManager cm(w.env(g), 100, zero::Placement::kDevice);
    cm.append("p", 50);
    const auto before_dev = cm.device_bytes();
    cm.reuse_as_grads(0);  // Figure 6: no new memory
    EXPECT_EQ(cm.device_bytes(), before_dev);
    EXPECT_TRUE(cm.chunk(0).holds_grads);
    cm.reuse_as_params(0);
    EXPECT_FALSE(cm.chunk(0).holds_grads);
  });
}

// ---- offload policies and Figure 14 ---------------------------------------------------

TEST(OffloadPolicy, StaticAlwaysHost) {
  zero::StaticOffloadPolicy p;
  EXPECT_EQ(p.place_param_chunk(1, 0, std::int64_t{1} << 40),
            zero::Placement::kHost);
  EXPECT_EQ(p.gpu_update_fraction(100, std::int64_t{1} << 40), 0.0);
  EXPECT_FALSE(p.reuse_fp16_storage());
}

TEST(OffloadPolicy, DynamicRespectsBudget) {
  zero::DynamicOffloadPolicy p;
  EXPECT_EQ(p.place_param_chunk(100, 0, 1000), zero::Placement::kDevice);
  EXPECT_EQ(p.place_param_chunk(100, 950, 1000), zero::Placement::kHost);
  EXPECT_DOUBLE_EQ(p.gpu_update_fraction(100, 50), 0.5);
  EXPECT_DOUBLE_EQ(p.gpu_update_fraction(100, 500), 1.0);
  EXPECT_DOUBLE_EQ(p.gpu_update_fraction(100, -5), 0.0);
  EXPECT_TRUE(p.reuse_fp16_storage());
}

namespace {

double offload_step_time(const zero::OffloadPolicy& policy, int gpus,
                         std::int64_t batch_per_gpu, std::int64_t hidden = 4096,
                         std::int64_t layers = 50) {
  // System II is the paper's machine for Figure 14; build a sub-cluster of
  // the right size with the same characteristics.
  DpWorld w(gpus, gpus == 8 ? sim::Topology::system_ii()
                            : sim::Topology::uniform(gpus, 15e9, sim::a100_80gb()));
  zero::OffloadWorkload work;
  work.layers = layers;
  work.hidden = hidden;
  work.batch_per_gpu = batch_per_gpu;
  w.cluster.run([&](int g) {
    zero::SimOffloadTrainer trainer(w.env(g), work, policy);
    trainer.train_step();
  });
  return w.cluster.max_clock();
}

}  // namespace

TEST(Offload, DynamicBeatsStaticAtSmallBatch) {
  // Figure 14: GPT-2 10B, batch 4 per GPU — the GPU is underused, the static
  // policy still offloads everything and pays PCIe + CPU-Adam every step.
  zero::StaticOffloadPolicy stat;
  zero::DynamicOffloadPolicy dyn;
  for (int gpus : {1, 4, 8}) {
    const double ts = offload_step_time(stat, gpus, 4);
    const double td = offload_step_time(dyn, gpus, 4);
    EXPECT_GT(ts / td, 1.2) << gpus << " gpus";
  }
}

TEST(Offload, AdvantageShrinksAtLargeBatch) {
  // OPT-13B at batch 32: both systems nearly fill the GPU; the paper reports
  // the gap closing to 1.33x.
  zero::StaticOffloadPolicy stat;
  zero::DynamicOffloadPolicy dyn;
  const double small_gap = offload_step_time(stat, 8, 4, 5120, 40) /
                           offload_step_time(dyn, 8, 4, 5120, 40);
  const double large_gap = offload_step_time(stat, 8, 32, 5120, 40) /
                           offload_step_time(dyn, 8, 32, 5120, 40);
  EXPECT_LT(large_gap, small_gap);
  EXPECT_GT(large_gap, 1.0);
}

TEST(Offload, DynamicKeepsChunksOnDeviceWhenTheyFit) {
  DpWorld w(8, sim::Topology::system_ii());
  zero::DynamicOffloadPolicy dyn;
  zero::OffloadWorkload work;  // 10B params over 8 ranks: 2.5GB fp16 shards
  work.batch_per_gpu = 4;
  std::vector<std::int64_t> dev_bytes(8);
  w.cluster.run([&](int g) {
    zero::SimOffloadTrainer trainer(w.env(g), work, dyn);
    dev_bytes[static_cast<std::size_t>(g)] = trainer.device_param_bytes();
  });
  // the whole fp16 shard fits comfortably into an A100-80GB
  EXPECT_GE(dev_bytes[0], work.params() / 8 * 2);
}
