// Elastic continuation (DESIGN.md section 13): a rank fail-stops mid-run,
// the survivors meet in the ElasticCoordinator, re-plan the layout for the
// shrunk world, re-shard the in-memory checkpoint, and keep training inside
// the same Cluster::run — with losses bit-identical to a cold restart from
// the same checkpoint on the same shrunk layout.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "autop/planner.hpp"
#include "engine/checkpoint.hpp"
#include "engine/elastic.hpp"
#include "models/transformer_classifier.hpp"
#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scoped_env.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"
#include "tp/linear1d.hpp"
#include "tp/linear2p5d.hpp"
#include "tp/linear3d.hpp"
#include "tp/relayout.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;
namespace engine = ca::engine;
namespace optim = ca::optim;
namespace autop = ca::autop;
namespace obs = ca::obs;

namespace {

constexpr std::int64_t kRows = 24;
constexpr std::int64_t kHidden = 48;
constexpr std::uint64_t kSeed = 7;
constexpr std::int64_t kTotalSteps = 6;
constexpr std::int64_t kKillStep = 3;

/// One TP linear layer driven full-in / full-out on whatever layout the
/// context carries: the input is sharded per mode, the local output gathered
/// back to full form through an ad-hoc ShardSpec, so the training loop above
/// it is layout-agnostic — exactly what lets one body span a recovery whose
/// re-plan switched the tensor grid.
struct ElasticModel {
  ElasticModel(const tp::Env& env, std::uint64_t seed) : env_(env) {
    core::ParallelContext& ctx = *env.ctx;
    mode_ = ctx.config().tensor_mode;
    if (core::is_grid(mode_)) {
      layer_ =
          std::make_unique<tp::Linear2p5D>(env, "l", kHidden, kHidden, seed);
    } else if (mode_ == core::TpMode::k3d) {
      layer_ = std::make_unique<tp::Linear3D>(env, "l", kHidden, kHidden, seed);
    } else {
      layer_ = std::make_unique<tp::Linear1DCol>(env, "l", kHidden, kHidden,
                                                 seed, /*gather_output=*/true);
    }
  }

  [[nodiscard]] nn::Module& module() { return *layer_; }
  [[nodiscard]] std::vector<nn::Parameter*> params() {
    return layer_->parameters();
  }

  t::Tensor forward_full(const t::Tensor& x) {
    core::ParallelContext& ctx = *env_.ctx;
    const int g = env_.grank;
    if (core::is_grid(mode_)) {
      const int q = ctx.grid_side(), d = ctx.depth();
      const int r = ctx.row_coord(g), c = ctx.col_coord(g);
      const int dd = ctx.depth_coord(g);
      auto y = layer_->forward(tp::Linear2p5D::shard_activation(x, env_));
      const nn::ShardSpec spec{kRows, kHidden, d * q, dd * q + r, q, c, 1,
                               true};
      return tp::gather_full(ctx.tensor_group(g), g, spec, y);
    }
    if (mode_ == core::TpMode::k3d) {
      const int l = ctx.grid_side();
      const int i = ctx.cube_i(g), j = ctx.cube_j(g), k = ctx.cube_k(g);
      auto y = layer_->forward(tp::Linear3D::shard_input(x, l, i, j, k));
      const nn::ShardSpec spec{kRows, kHidden, l * l, i * l + k, l, j, 1,
                               true};
      return tp::gather_full(ctx.tensor_group(g), g, spec, y);
    }
    return layer_->forward(x);  // gather_output gives the full y
  }

  void backward_full(const t::Tensor& dy) {
    core::ParallelContext& ctx = *env_.ctx;
    const int g = env_.grank;
    if (core::is_grid(mode_)) {
      layer_->backward(tp::Linear2p5D::shard_activation(dy, env_));
    } else if (mode_ == core::TpMode::k3d) {
      layer_->backward(tp::Linear3D::shard_output(
          dy, ctx.grid_side(), ctx.cube_i(g), ctx.cube_j(g), ctx.cube_k(g)));
    } else {
      layer_->backward(dy);
    }
  }

  /// One training step on deterministic data: MSE against a fixed target,
  /// identical float-by-float on every layout's gathered y.
  float train_step(std::int64_t s, optim::Optimizer& opt) {
    auto x = t::randn(t::Shape{kRows, kHidden}, 1000 + static_cast<std::uint64_t>(s));
    auto target = t::randn(t::Shape{kRows, kHidden}, 99);
    auto y = forward_full(x);
    auto yd = y.data();
    auto td = target.data();
    const auto n = static_cast<std::int64_t>(yd.size());
    float loss = 0.0f;
    t::Tensor dy(t::Shape{kRows, kHidden}, 0.0f);
    auto dyd = dy.data();
    const float inv = 1.0f / static_cast<float>(n);
    for (std::int64_t i = 0; i < n; ++i) {
      const float d = yd[static_cast<std::size_t>(i)] -
                      td[static_cast<std::size_t>(i)];
      loss += d * d * inv;
      dyd[static_cast<std::size_t>(i)] = 2.0f * d * inv;
    }
    opt.zero_grad();
    backward_full(dy);
    opt.step();
    return loss;
  }

  tp::Env env_;
  core::TpMode mode_;
  std::unique_ptr<nn::Module> layer_;
};

struct ScenarioResult {
  std::vector<std::vector<float>> elastic_losses;  // [cluster rank][step]
  std::vector<std::vector<float>> cold_losses;     // [survivor rank][step]
  std::int64_t restore_step = -1;
  core::Config final_config;
  int recoveries = 0;
};

/// The full elastic drill: train `mode` on `tp` ranks, kill the last rank at
/// kKillStep, let the coordinator shrink the world and finish the run, then
/// cold-restart a fresh identity cluster of the final layout from the same
/// checkpoint bytes and replay the same steps.
ScenarioResult run_elastic_scenario(core::TpMode mode, int tp, int depth) {
  ScenarioResult out;
  core::Config cfg;
  cfg.tensor_parallel_size = tp;
  cfg.tensor_mode = mode;
  cfg.tensor_depth = depth;
  cfg.elastic = "on";

  sim::Cluster cluster(sim::Topology::uniform(cfg.world_size(), 100e9));
  cluster.install_faults(
      sim::FaultPlan{}.fail_stop(cfg.world_size() - 1, kKillStep));
  col::Backend backend(cluster);

  engine::ElasticOptions opts = engine::ElasticOptions::resolve(cfg);
  opts.rows = kRows;
  opts.hidden = kHidden;
  engine::ElasticCoordinator coord(backend, cfg, opts);

  out.elastic_losses.assign(
      static_cast<std::size_t>(cfg.world_size()),
      std::vector<float>(static_cast<std::size_t>(kTotalSteps), -1.0f));
  std::mutex capture_mu;
  std::string restore_bytes;

  cluster.run([&](int g) {
    coord.run(g, [&](core::ParallelContext& ctx, int ep) {
      tp::Env env{&ctx, g};
      ElasticModel model(env, kSeed);
      optim::Adam opt(model.params(), {});
      std::int64_t start = 0;
      auto [cstep, cbytes] = coord.latest_checkpoint();
      if (cstep >= 0) {
        std::istringstream is(cbytes);
        start = engine::deserialize_checkpoint(env, model.module(), opt, is);
        coord.note_resharded(g, static_cast<std::int64_t>(cbytes.size()));
        if (ep > 0 && ctx.virtual_rank(g) == 0) {
          std::lock_guard<std::mutex> lk(capture_mu);
          out.restore_step = start;
          restore_bytes = cbytes;
        }
      }
      for (std::int64_t s = start; s < kTotalSteps; ++s) {
        coord.poll(g);
        cluster.fault_injector()->on_step(g, s, cluster.device(g).clock());
        out.elastic_losses[static_cast<std::size_t>(g)]
                          [static_cast<std::size_t>(s)] =
            model.train_step(s, opt);
        std::ostringstream os;
        engine::serialize_checkpoint(env, model.module(), opt, s + 1, os);
        coord.store_checkpoint(s + 1, os.str());
      }
      if (ep > 0) coord.note_replayed(g, kTotalSteps - start);
    });
  });

  out.final_config = coord.context().config();
  out.recoveries = coord.recoveries();
  if (out.restore_step < 0) return out;  // recovery never happened

  // Cold restart: a fresh cluster exactly the final layout's size, identity
  // rank mapping, restored from the same serialized bytes.
  sim::Cluster cold(sim::Topology::uniform(out.final_config.world_size(), 100e9));
  col::Backend cold_backend(cold);
  core::ParallelContext cold_ctx(cold_backend, out.final_config);
  out.cold_losses.assign(
      static_cast<std::size_t>(out.final_config.world_size()),
      std::vector<float>(static_cast<std::size_t>(kTotalSteps), -2.0f));
  cold.run([&](int g) {
    tp::Env env{&cold_ctx, g};
    ElasticModel model(env, kSeed);
    optim::Adam opt(model.params(), {});
    std::istringstream is(restore_bytes);
    const std::int64_t start =
        engine::deserialize_checkpoint(env, model.module(), opt, is);
    for (std::int64_t s = start; s < kTotalSteps; ++s) {
      out.cold_losses[static_cast<std::size_t>(g)]
                     [static_cast<std::size_t>(s)] = model.train_step(s, opt);
    }
  });
  return out;
}

/// Bitwise float equality (the acceptance bar: not approximate).
bool bit_equal(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_bit_identical_resume(const ScenarioResult& r) {
  ASSERT_EQ(r.recoveries, 1);
  ASSERT_GE(r.restore_step, 1);
  ASSERT_LE(r.restore_step, kKillStep);
  const int w = r.final_config.world_size();
  for (int g = 0; g < w; ++g) {
    for (std::int64_t s = r.restore_step; s < kTotalSteps; ++s) {
      const float e = r.elastic_losses[static_cast<std::size_t>(g)]
                                      [static_cast<std::size_t>(s)];
      const float c = r.cold_losses[static_cast<std::size_t>(g)]
                                   [static_cast<std::size_t>(s)];
      EXPECT_TRUE(bit_equal(e, c))
          << "rank " << g << " step " << s << ": elastic " << e << " vs cold "
          << c;
      // losses agree across member ranks too (gathered y is identical)
      EXPECT_TRUE(bit_equal(e, r.elastic_losses[0][static_cast<std::size_t>(s)]));
    }
  }
}

}  // namespace

// ---- fail-stop x layout matrix ----------------------------------------------

TEST(Elastic, FailStop1DContinuesBitIdentical) {
  auto r = run_elastic_scenario(core::TpMode::k1d, 4, 1);
  expect_bit_identical_resume(r);
  // 3 survivors: hidden 48 % 3 == 0, so the planner keeps all of them on 1D.
  EXPECT_EQ(r.final_config.tensor_mode, core::TpMode::k1d);
  EXPECT_EQ(r.final_config.tensor_parallel_size, 3);
}

TEST(Elastic, FailStop2DContinuesBitIdentical) {
  auto r = run_elastic_scenario(core::TpMode::k2d, 4, 1);
  expect_bit_identical_resume(r);
  // No square fits 3 ranks: the 2D grid degrades to a 1D group of 3.
  EXPECT_EQ(r.final_config.tensor_mode, core::TpMode::k1d);
  EXPECT_EQ(r.final_config.tensor_parallel_size, 3);
}

TEST(Elastic, FailStop2p5DContinuesBitIdentical) {
  auto r = run_elastic_scenario(core::TpMode::k2p5d, 8, 2);
  expect_bit_identical_resume(r);
  // 7 survivors, 48 % 7 != 0: the best use of the wreckage is 1D x 6.
  EXPECT_EQ(r.final_config.tensor_mode, core::TpMode::k1d);
  EXPECT_EQ(r.final_config.tensor_parallel_size, 6);
  EXPECT_EQ(r.final_config.world_size(), 6);  // one survivor dropped
}

TEST(Elastic, FailStop3DContinuesBitIdentical) {
  auto r = run_elastic_scenario(core::TpMode::k3d, 8, 1);
  expect_bit_identical_resume(r);
  EXPECT_EQ(r.final_config.tensor_mode, core::TpMode::k1d);
  EXPECT_EQ(r.final_config.tensor_parallel_size, 6);
}

// The same drill under the fiber backend and the bf16 wire: recovery and the
// bit-identity bar are backend- and wire-dtype-independent (elastic resume
// and cold restart share one layout, so they share one rounding story).
TEST(Elastic, MatrixTasksBackend) {
  ScopedEnv backend("CA_SIM_BACKEND", "tasks");
  auto r = run_elastic_scenario(core::TpMode::k2d, 4, 1);
  expect_bit_identical_resume(r);
}

TEST(Elastic, MatrixBf16Wire) {
  ScopedEnv wire("CA_COMM_DTYPE", "bf16");
  auto r = run_elastic_scenario(core::TpMode::k2d, 4, 1);
  expect_bit_identical_resume(r);
}

TEST(Elastic, MatrixTasksBackendBf16Wire) {
  ScopedEnv backend("CA_SIM_BACKEND", "tasks");
  ScopedEnv wire("CA_COMM_DTYPE", "bf16");
  auto r = run_elastic_scenario(core::TpMode::k1d, 4, 1);
  expect_bit_identical_resume(r);
}

// ---- give-up and disabled paths ---------------------------------------------

TEST(Elastic, MinWorldFloorRethrowsOriginal) {
  // With the floor at the full world, losing a rank must NOT be survivable:
  // recovery gives up and the root-cause DeviceFailure surfaces as before.
  ScopedEnv floor("CA_ELASTIC_MIN_WORLD", "4");
  EXPECT_THROW(run_elastic_scenario(core::TpMode::k2d, 4, 1),
               sim::DeviceFailure);
}

TEST(Elastic, DisabledKeepsAbortSemantics) {
  ScopedEnv off("CA_ELASTIC", "off");
  EXPECT_THROW(run_elastic_scenario(core::TpMode::k2d, 4, 1),
               sim::DeviceFailure);
}

// ---- survivor-layout planner ------------------------------------------------

TEST(Elastic, SurvivorLayoutPlannerDeterministic) {
  const double flops = 1e12, bw = 100e9;
  auto a = autop::best_survivor_layout(3, kRows, kHidden, 1, flops, bw);
  auto b = autop::best_survivor_layout(3, kRows, kHidden, 1, flops, bw);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.tensor, b.tensor);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.mode, core::TpMode::k1d);
  EXPECT_EQ(a.tensor, 3);

  // 48 % 7 != 0: six of seven survivors beat any smaller grid.
  auto c = autop::best_survivor_layout(7, kRows, kHidden, 1, flops, bw);
  ASSERT_TRUE(c.feasible);
  EXPECT_EQ(c.mode, core::TpMode::k1d);
  EXPECT_EQ(c.tensor, 6);
  EXPECT_EQ(c.ranks_used, 6);

  // With data parallelism allowed, all seven get used: dp * tp = 7 only as
  // 1 * 7 (infeasible) — but 24 rows split across dp and the planner still
  // maximizes ranks_used first.
  auto d = autop::best_survivor_layout(8, kRows, kHidden, 2, flops, bw);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.ranks_used, 8);

  // A single survivor degenerates to serial execution.
  auto e = autop::best_survivor_layout(1, kRows, kHidden, 1, flops, bw);
  ASSERT_TRUE(e.feasible);
  EXPECT_EQ(e.mode, core::TpMode::kNone);
  EXPECT_EQ(e.ranks_used, 1);
}

// ---- observability ----------------------------------------------------------

TEST(Elastic, MetricsAndSpansEmitted) {
  core::Config cfg;
  cfg.tensor_parallel_size = 4;
  cfg.tensor_mode = core::TpMode::k2d;
  cfg.elastic = "on";
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  cluster.install_faults(sim::FaultPlan{}.fail_stop(3, kKillStep));
  auto& metrics = cluster.enable_metrics();
  auto& tracer = cluster.enable_tracing();
  col::Backend backend(cluster);
  engine::ElasticOptions opts = engine::ElasticOptions::resolve(cfg);
  opts.rows = kRows;
  opts.hidden = kHidden;
  engine::ElasticCoordinator coord(backend, cfg, opts);

  cluster.run([&](int g) {
    coord.run(g, [&](core::ParallelContext& ctx, int ep) {
      tp::Env env{&ctx, g};
      ElasticModel model(env, kSeed);
      optim::Adam opt(model.params(), {});
      std::int64_t start = 0;
      auto [cstep, cbytes] = coord.latest_checkpoint();
      if (cstep >= 0) {
        std::istringstream is(cbytes);
        start = engine::deserialize_checkpoint(env, model.module(), opt, is);
        coord.note_resharded(g, static_cast<std::int64_t>(cbytes.size()));
      }
      for (std::int64_t s = start; s < kTotalSteps; ++s) {
        coord.poll(g);
        cluster.fault_injector()->on_step(g, s, cluster.device(g).clock());
        model.train_step(s, opt);
        std::ostringstream os;
        engine::serialize_checkpoint(env, model.module(), opt, s + 1, os);
        coord.store_checkpoint(s + 1, os.str());
      }
      if (ep > 0) coord.note_replayed(g, kTotalSteps - start);
    });
  });

  const auto counters = metrics.merged_counters();
  ASSERT_TRUE(counters.count("elastic.recoveries"));
  EXPECT_EQ(counters.at("elastic.recoveries"), 3);  // one per survivor
  ASSERT_TRUE(counters.count("elastic.reshard_bytes"));
  EXPECT_GT(counters.at("elastic.reshard_bytes"), 0);
  bool mttr_seen = false, replay_seen = false;
  for (int r = 0; r < 4; ++r) {
    for (const auto& [name, gauge] : metrics.rank(r).gauges()) {
      if (name == "elastic.mttr_s" && gauge.value > 0.0) mttr_seen = true;
      if (name == "elastic.replayed_steps" && gauge.value > 0.0) {
        replay_seen = true;
      }
    }
  }
  EXPECT_TRUE(mttr_seen);
  EXPECT_TRUE(replay_seen);

  std::set<std::string> span_names;
  for (int r = 0; r < 4; ++r) {
    for (const auto& ev : tracer.rank(r).events()) {
      if (ev.cat == obs::Category::kFault) span_names.insert(ev.name);
    }
  }
  EXPECT_TRUE(span_names.count("elastic.consensus"));
  EXPECT_TRUE(span_names.count("elastic.rebuild"));
  EXPECT_TRUE(span_names.count("elastic.reshard"));
  EXPECT_TRUE(span_names.count("elastic.replay"));
}

// ---- checkpoint re-layout ---------------------------------------------------

TEST(Elastic, CheckpointRelayout2Dto1D) {
  // Two Adam steps on a 2D grid, serialize, restore onto a 1D pair, and
  // re-serialize: the full-form checkpoint must round-trip byte-identically
  // through the layout change (params AND moments).
  std::string bytes_2d;
  {
    core::Config cfg;
    cfg.tensor_parallel_size = 4;
    cfg.tensor_mode = core::TpMode::k2d;
    sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
    col::Backend backend(cluster);
    core::ParallelContext ctx(backend, cfg);
    std::mutex mu;
    cluster.run([&](int g) {
      tp::Env env{&ctx, g};
      ElasticModel model(env, kSeed);
      optim::Adam opt(model.params(), {});
      for (std::int64_t s = 0; s < 2; ++s) model.train_step(s, opt);
      std::ostringstream os;
      engine::serialize_checkpoint(env, model.module(), opt, 2, os);
      if (g == 0) {
        std::lock_guard<std::mutex> lk(mu);
        bytes_2d = os.str();
      }
    });
  }
  ASSERT_FALSE(bytes_2d.empty());

  std::vector<std::string> bytes_1d(2);
  {
    core::Config cfg;
    cfg.tensor_parallel_size = 2;
    cfg.tensor_mode = core::TpMode::k1d;
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    col::Backend backend(cluster);
    core::ParallelContext ctx(backend, cfg);
    cluster.run([&](int g) {
      tp::Env env{&ctx, g};
      ElasticModel model(env, kSeed + 1);  // different seed: restore must win
      optim::Adam opt(model.params(), {});
      std::istringstream is(bytes_2d);
      const std::int64_t step =
          engine::deserialize_checkpoint(env, model.module(), opt, is);
      EXPECT_EQ(step, 2);
      std::ostringstream os;
      engine::serialize_checkpoint(env, model.module(), opt, 2, os);
      bytes_1d[static_cast<std::size_t>(g)] = os.str();
    });
  }
  EXPECT_EQ(bytes_1d[0], bytes_2d);
  EXPECT_EQ(bytes_1d[1], bytes_2d);  // identical on every member
}

TEST(Elastic, ShardSpecRoundTrip) {
  // Pure local math: slice every block of a 2x3 grid out of a full matrix
  // and scatter-add them back — exact reassembly, no collectives involved.
  const std::int64_t rows = 6, cols = 9;
  auto full = t::randn(t::Shape{rows, cols}, 5);
  std::vector<float> rebuilt(static_cast<std::size_t>(rows * cols), 0.0f);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      nn::ShardSpec spec{rows, cols, 2, r, 3, c, 1, true};
      std::vector<float> local(
          static_cast<std::size_t>((rows / 2) * (cols / 3)));
      tp::slice_from_full(spec, full.data(), local);
      tp::add_to_full(spec, local, rebuilt);
    }
  }
  EXPECT_EQ(std::memcmp(rebuilt.data(), full.data().data(),
                        rebuilt.size() * sizeof(float)),
            0);

  // A redundant replica (primary=false) must not feed the gather: add only
  // the primary copy and the reassembly still matches.
  nn::ShardSpec replicated{rows, 0, 1, 0, 1, 0, 1, false};
  EXPECT_FALSE(replicated.partitioned());
}

// ---- checkpoints of whole Transformer layers ---------------------------------

namespace {

namespace models = ca::models;

/// Hands a model's parameter list to the checkpoint writer, which walks an
/// nn::Module.
class ParamList : public nn::Module {
 public:
  explicit ParamList(std::vector<nn::Parameter*> params)
      : params_(std::move(params)) {}
  t::Tensor forward(const t::Tensor& x) override { return x; }
  t::Tensor backward(const t::Tensor& dy) override { return dy; }
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    out.insert(out.end(), params_.begin(), params_.end());
  }

 private:
  std::vector<nn::Parameter*> params_;
};

models::TransformerClassifier::Config layer_config(std::uint64_t seed) {
  models::TransformerClassifier::Config mc;
  mc.patches = 3;
  mc.patch_dim = 8;
  mc.hidden = 16;
  mc.heads = 4;
  mc.ffn = 32;
  mc.blocks = 2;
  mc.classes = 8;
  mc.seed = seed;
  return mc;
}

/// One Adam step of a TransformerClassifier on step-indexed data.
float layer_step(models::TransformerClassifier& m, optim::Adam& opt,
                 std::int64_t s) {
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < 8; ++i) labels.push_back(i % 8);
  opt.zero_grad();
  const float loss = m.train_batch(
      t::randn(t::Shape{8, 3, 8}, 500 + static_cast<std::uint64_t>(s)),
      labels);
  opt.step();
  return loss;
}

constexpr optim::Adam::Hyper kLayerAdam{1e-2f};

/// Train a TransformerClassifier for two steps on `cfg`'s layout and save;
/// every member must write the same bytes. A fresh model (other seed) then
/// restores the root's bytes and takes step three, whose loss must
/// bit-equal the uninterrupted run's on every rank.
void expect_layer_resume(const core::Config& cfg) {
  const int p = cfg.world_size();
  sim::Cluster cluster(sim::Topology::uniform(p, 100e9));
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, cfg);
  std::vector<std::string> bytes(static_cast<std::size_t>(p));
  std::vector<float> uninterrupted(static_cast<std::size_t>(p));
  std::vector<float> resumed(static_cast<std::size_t>(p));
  cluster.run([&](int g) {
    const tp::Env env{&ctx, g};
    const auto gi = static_cast<std::size_t>(g);
    {
      models::TransformerClassifier m(env, layer_config(17));
      optim::Adam opt(m.parameters(), kLayerAdam);
      ParamList view(m.parameters());
      for (std::int64_t s = 0; s < 2; ++s) layer_step(m, opt, s);
      std::ostringstream os;
      engine::serialize_checkpoint(env, view, opt, 2, os);
      bytes[gi] = os.str();
      uninterrupted[gi] = layer_step(m, opt, 2);
    }
    // every rank must be done writing before anyone reads the root's bytes
    ctx.tensor_group(g).barrier(g);
    models::TransformerClassifier m(env, layer_config(18));
    optim::Adam opt(m.parameters(), kLayerAdam);
    ParamList view(m.parameters());
    std::istringstream is(bytes[0]);
    EXPECT_EQ(engine::deserialize_checkpoint(env, view, opt, is), 2);
    resumed[gi] = layer_step(m, opt, 2);
  });
  for (int g = 0; g < p; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    EXPECT_EQ(bytes[gi], bytes[0]) << "rank " << g;
    EXPECT_TRUE(bit_equal(resumed[gi], uninterrupted[gi]))
        << "rank " << g << ": resumed " << resumed[gi] << " vs uninterrupted "
        << uninterrupted[gi];
  }
}

}  // namespace

TEST(LayerCheckpoint, Resume2d) {
  core::Config cfg;
  cfg.tensor_parallel_size = 4;
  cfg.tensor_mode = core::TpMode::k2d;
  expect_layer_resume(cfg);
}

TEST(LayerCheckpoint, Resume3d) {
  core::Config cfg;
  cfg.tensor_parallel_size = 8;
  cfg.tensor_mode = core::TpMode::k3d;
  expect_layer_resume(cfg);
}

TEST(LayerCheckpoint, Relayout2Dto1D) {
  // A TransformerClassifier checkpoint holds the serial full form on every
  // layout: an untrained 2D grid and an untrained 1D pair built from one
  // seed write identical bytes (fused QKV as [q|k|v], whole LayerNorm
  // gamma/beta). After two Adam steps on the grid, the bytes restore onto the
  // 1D pair and re-serialize byte-identically on every member.
  auto layout = [](int p, core::TpMode mode) {
    core::Config cfg;
    cfg.tensor_parallel_size = p;
    cfg.tensor_mode = mode;
    return cfg;
  };
  std::string fresh_2d, trained_2d;
  {
    const core::Config cfg = layout(4, core::TpMode::k2d);
    sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
    col::Backend backend(cluster);
    core::ParallelContext ctx(backend, cfg);
    std::mutex mu;
    cluster.run([&](int g) {
      const tp::Env env{&ctx, g};
      models::TransformerClassifier m(env, layer_config(17));
      optim::Adam opt(m.parameters(), kLayerAdam);
      ParamList view(m.parameters());
      std::ostringstream fresh;
      engine::serialize_checkpoint(env, view, opt, 0, fresh);
      for (std::int64_t s = 0; s < 2; ++s) layer_step(m, opt, s);
      std::ostringstream trained;
      engine::serialize_checkpoint(env, view, opt, 2, trained);
      if (g == 0) {
        std::lock_guard<std::mutex> lk(mu);
        fresh_2d = fresh.str();
        trained_2d = trained.str();
      }
    });
  }
  ASSERT_FALSE(trained_2d.empty());

  std::vector<std::string> fresh_1d(2), relaid_1d(2);
  {
    const core::Config cfg = layout(2, core::TpMode::k1d);
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    col::Backend backend(cluster);
    core::ParallelContext ctx(backend, cfg);
    cluster.run([&](int g) {
      const tp::Env env{&ctx, g};
      const auto gi = static_cast<std::size_t>(g);
      {
        models::TransformerClassifier m(env, layer_config(17));
        optim::Adam opt(m.parameters(), kLayerAdam);
        ParamList view(m.parameters());
        std::ostringstream os;
        engine::serialize_checkpoint(env, view, opt, 0, os);
        fresh_1d[gi] = os.str();
      }
      models::TransformerClassifier m(env, layer_config(18));
      optim::Adam opt(m.parameters(), kLayerAdam);
      ParamList view(m.parameters());
      std::istringstream is(trained_2d);
      EXPECT_EQ(engine::deserialize_checkpoint(env, view, opt, is), 2);
      std::ostringstream os;
      engine::serialize_checkpoint(env, view, opt, 2, os);
      relaid_1d[gi] = os.str();
    });
  }
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_TRUE(fresh_1d[g] == fresh_2d) << "rank " << g;
    EXPECT_TRUE(relaid_1d[g] == trained_2d) << "rank " << g;
  }
}
