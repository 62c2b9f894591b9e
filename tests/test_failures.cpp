// Failure injection: out-of-memory behaviour (the mechanism behind every
// "increase until OOM" range test in the paper), error propagation out of the
// SPMD region, edge-case schedules, and the fault matrix — fail-stop /
// straggler / link-degrade / NaN / transient faults against the watchdog,
// the numeric guard, and checkpoint/restore.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "collective/p2p.hpp"
#include "core/launch.hpp"
#include "core/serialize.hpp"
#include "data/synthetic.hpp"
#include "engine/checkpoint.hpp"
#include "engine/zero_engine.hpp"
#include "nn/checkpoint.hpp"
#include "nn/layers.hpp"
#include "pp/pipeline.hpp"
#include "scoped_env.hpp"
#include "tp/linear1d.hpp"
#include "zero/chunk.hpp"
#include "zero/hybrid_adam.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;
namespace pp = ca::pp;
namespace data = ca::data;
namespace engine = ca::engine;
namespace optim = ca::optim;
namespace zero = ca::zero;
namespace obs = ca::obs;

namespace {

/// A cluster of tiny-memory devices for functional OOM tests.
sim::Topology tiny_gpus(int n, std::int64_t capacity_bytes) {
  sim::GpuModel gpu{"tiny", capacity_bytes, 1e12, 1e12};
  return sim::Topology::uniform(n, 100e9, gpu);
}

struct World {
  explicit World(core::Config cfg, double bw = 100e9)
      : cluster(sim::Topology::uniform(cfg.world_size(), bw)),
        backend(cluster),
        ctx(backend, cfg) {}
  tp::Env env(int g) { return tp::Env{&ctx, g}; }

  sim::Cluster cluster;
  col::Backend backend;
  core::ParallelContext ctx;
};

}  // namespace

TEST(FailureInjection, FunctionalRangeTestHitsOom) {
  // the paper's protocol: grow the batch until out-of-memory; the simulated
  // devices enforce their capacity and the OOM surfaces as sim::OomError.
  const int p = 2;
  const std::int64_t h = 32;
  std::int64_t max_batch = 0;
  for (std::int64_t b = 8;; b += 8) {
    sim::Cluster cluster(tiny_gpus(p, 64 << 10));  // 64 KiB devices
    col::Backend backend(cluster);
    core::Config cfg;
    cfg.tensor_parallel_size = p;
    cfg.tensor_mode = core::TpMode::k1d;
    core::ParallelContext ctx(backend, cfg);
    try {
      auto x = t::randn(t::Shape{b, h}, 1);
      cluster.run([&](int g) {
        tp::Env env{&ctx, g};
        tp::Linear1DCol l1(env, "a", h, h, 2, false);
        tp::Linear1DRow l2(env, "b", h, h, 3);
        auto y = l2.forward(l1.forward(x));
        (void)y;
        l1.backward(l2.backward(x));
      });
      max_batch = b;
    } catch (const sim::OomError& e) {
      EXPECT_GT(e.requested(), 0);
      EXPECT_LE(e.in_use(), e.capacity());
      break;
    }
    ASSERT_LT(b, 10000) << "never hit OOM";
  }
  EXPECT_GT(max_batch, 0);  // something fit before the wall
}

TEST(FailureInjection, OomDoesNotCorruptTracker) {
  sim::MemoryTracker mem("gpu", 100);
  mem.alloc(60);
  EXPECT_THROW(mem.alloc(50), sim::OomError);
  EXPECT_EQ(mem.current(), 60);  // failed alloc not recorded
  mem.free(60);
  EXPECT_EQ(mem.current(), 0);
  EXPECT_NO_THROW(mem.alloc(100));  // full capacity usable again
}

TEST(FailureInjection, ChunkMoveToFullDeviceThrows) {
  sim::Cluster cluster(tiny_gpus(1, 1000));
  col::Backend backend(cluster);
  core::Config cfg;
  core::ParallelContext ctx(backend, cfg);
  cluster.run([&](int g) {
    tp::Env env{&ctx, g};
    ca::zero::ChunkManager cm(env, 800, ca::zero::Placement::kHost);
    cm.append("a", 800);
    env.mem().alloc(500);  // pre-existing pressure
    EXPECT_THROW(cm.fetch(0), sim::OomError);
    // the chunk stays consistently on the host after the failed move
    EXPECT_EQ(cm.host_bytes(), 800);
    EXPECT_EQ(cm.device_bytes(), 0);
  });
}

TEST(FailureInjection, WorkerExceptionPropagatesWithMessage) {
  sim::Cluster cluster(sim::Topology::uniform(4, 1e9));
  try {
    cluster.run([](int rank) {
      if (rank == 2) throw std::runtime_error("injected fault on rank 2");
    });
    FAIL() << "expected propagation";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected fault on rank 2");
  }
}

TEST(FailureInjection, PipelineWithFewerMicrosThanStages) {
  // M=1 on a 2-stage pipeline: pure fill/drain, still correct gradients.
  sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
  col::Backend backend(cluster);
  core::Config cfg;
  cfg.pipeline_parallel_size = 2;
  core::ParallelContext ctx(backend, cfg);
  // activations cross stages in the comm wire dtype; pin fp32 so the
  // serial comparison below stays exact under the CA_COMM_DTYPE=bf16 sweep
  ctx.set_comm_dtype(t::Dtype::kF32);

  auto x = t::randn(t::Shape{2, 4}, 5);
  const std::vector<std::int64_t> labels{0, 1};
  nn::Linear r0("s0", 4, 6, 6), r1("s1", 6, 2, 7);
  auto y = r1.forward(r0.forward(x));
  t::Tensor dl;
  const float ref_loss = t::cross_entropy(y, labels, dl);
  r0.backward(r1.backward(dl));

  std::vector<t::Tensor> grads(2);
  float loss = 0.0f;
  cluster.run([&](int g) {
    tp::Env env{&ctx, g};
    nn::Linear stage(g == 0 ? "s0" : "s1", g == 0 ? 4 : 6, g == 0 ? 6 : 2,
                     g == 0 ? 6 : 7);
    pp::Pipeline pipe(env, stage, t::Shape{2, g == 0 ? 4 : 6},
                      pp::Schedule::kOneFOneB);
    std::vector<t::Tensor> inputs{x};
    const float l =
        pipe.train_step(1, g == 0 ? std::span<const t::Tensor>(inputs)
                                  : std::span<const t::Tensor>{},
                        [&](const t::Tensor& yy, t::Tensor& dy, int) {
                          t::Tensor d2;
                          const float lv = t::cross_entropy(yy, labels, d2);
                          dy = d2;
                          return lv;
                        });
    grads[static_cast<std::size_t>(g)] = stage.weight().grad.clone();
    if (g == 1) loss = l;
  });
  EXPECT_NEAR(loss, ref_loss, 1e-6f);
  EXPECT_TRUE(t::allclose(grads[0], r0.weight().grad, 1e-5f));
  EXPECT_TRUE(t::allclose(grads[1], r1.weight().grad, 1e-5f));
}

TEST(FailureInjection, ScopedAllocReleasesOnException) {
  sim::MemoryTracker mem("gpu", 1000);
  try {
    sim::ScopedAlloc a(mem, 400);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(mem.current(), 0);  // RAII released despite the unwind
}

// ======================= fault matrix ==========================================
// Injected faults against the collective watchdog, the numeric guard, and
// checkpoint/restore (DESIGN.md section 7).

TEST(FaultMatrix, FailStopBlockingCollectiveSurvivorsTimeout) {
  // Rank 2 dies mid-run; the three survivors blocked at the next rendezvous
  // must each raise a structured CommTimeoutError — not hang — and the region
  // rethrows the root cause (the DeviceFailure, not a survivor's timeout).
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  sim::FaultPlan plan;
  plan.fail_stop_at(2, 0.35);
  plan.watchdog = 0.5;
  cluster.install_faults(plan);
  col::Backend backend(cluster);
  auto& world = backend.world();

  std::array<std::optional<sim::CommTimeoutError>, 4> survivor;
  try {
    cluster.run([&](int g) {
      std::vector<float> buf(256, 1.0f);
      for (;;) {
        cluster.device(g).advance_clock(0.2);
        try {
          world.all_reduce(g, buf);
        } catch (const sim::CommTimeoutError& e) {
          survivor[static_cast<std::size_t>(g)] = e;
          return;  // survivor handled the failure; only rank 2's error escapes
        }
      }
    });
    FAIL() << "expected the dead rank's DeviceFailure to propagate";
  } catch (const sim::DeviceFailure& e) {
    EXPECT_EQ(e.rank(), 2);
  }
  for (int g : {0, 1, 3}) {
    const auto& e = survivor[static_cast<std::size_t>(g)];
    ASSERT_TRUE(e.has_value()) << "rank " << g << " saw no timeout";
    EXPECT_EQ(e->rank(), g);
    EXPECT_EQ(e->group(), "world");
    EXPECT_EQ(e->op(), "all_reduce");
    EXPECT_EQ(e->bytes(), 256 * 4);
    EXPECT_DOUBLE_EQ(e->elapsed(), 0.5);  // exactly the watchdog budget
    EXPECT_NE(std::string(e->what()).find("fail-stop fault on rank 2"),
              std::string::npos);
  }
  EXPECT_FALSE(survivor[2].has_value());
  EXPECT_EQ(cluster.fault_state().dead_ranks(), std::vector<int>{2});
}

TEST(FaultMatrix, FailStopAsyncCollectiveSurvivorsTimeout) {
  // Same fail-stop, but the survivors are inside wait() on deferred async
  // ops when the peer dies: the drain's rendezvous must abort too.
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  sim::FaultPlan plan;
  plan.fail_stop_at(3, 0.1);
  cluster.install_faults(plan);
  col::Backend backend(cluster);
  auto& world = backend.world();

  std::array<std::optional<sim::CommTimeoutError>, 4> survivor;
  try {
    cluster.run([&](int g) {
      std::vector<float> a(128, 1.0f), b(128, 2.0f);
      auto h1 = world.all_reduce_async(g, a);
      auto h2 = world.all_reduce_async(g, b);
      cluster.device(g).advance_clock(0.2);  // everyone is past the fail point
      try {
        h1.wait();
        h2.wait();
      } catch (const sim::CommTimeoutError& e) {
        survivor[static_cast<std::size_t>(g)] = e;
      }
    });
    FAIL() << "expected the dead rank's DeviceFailure to propagate";
  } catch (const sim::DeviceFailure& e) {
    EXPECT_EQ(e.rank(), 3);
  }
  for (int g : {0, 1, 2}) {
    const auto& e = survivor[static_cast<std::size_t>(g)];
    ASSERT_TRUE(e.has_value()) << "rank " << g << " saw no timeout";
    EXPECT_EQ(e->op(), "all_reduce");
    EXPECT_EQ(e->bytes(), 128 * 4);
  }
}

TEST(FaultMatrix, FailStopDuringTrainingStepReportsRootCause) {
  // Step-triggered death inside the DP engine (bucketed grad sync): the
  // survivor unwinds out of Engine::step with CommTimeoutError, the region
  // reports the DeviceFailure with its rank and step.
  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  sim::FaultPlan plan;
  plan.fail_stop(1, 2);
  w.cluster.install_faults(plan);
  data::SyntheticClassification ds(256, 6, 3, 91);

  std::optional<sim::CommTimeoutError> survivor;
  std::int64_t survivor_steps = -1;
  try {
    w.cluster.run([&](int g) {
      nn::Sequential net;
      net.add(std::make_unique<nn::Linear>("m", 6, 3, 92));
      auto eng = engine::initialize(
          w.env(g), net,
          std::make_unique<optim::Adam>(net.parameters(),
                                        optim::Adam::Hyper{0.01f}));
      data::DataLoader loader(ds, 8, g, 2);
      try {
        for (int s = 0; s < 4; ++s) {
          auto batch = loader.next(s);
          eng->zero_grad();
          auto out = eng->forward(batch.x);
          eng->criterion(out, batch.labels);
          eng->backward();
          eng->step();
        }
      } catch (const sim::CommTimeoutError& e) {
        survivor = e;
        survivor_steps = eng->steps_taken();
        return;
      }
    });
    FAIL() << "expected DeviceFailure";
  } catch (const sim::DeviceFailure& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.step(), 2);
  }
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->rank(), 0);
  EXPECT_EQ(survivor->op(), "all_reduce");
  EXPECT_EQ(survivor_steps, 3);  // two full steps + the aborted third
}

TEST(FaultMatrix, P2pRendezvousWithDeadPeerTimesOut) {
  // A blocked p2p endpoint whose peer died must unwind with CommTimeoutError
  // (group "p2p", op send/recv), both for a pending recv and a sync send.
  {
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    cluster.fault_state().set_watchdog(0.25);
    col::Backend backend(cluster);
    std::optional<sim::CommTimeoutError> err;
    try {
      cluster.run([&](int g) {
        if (g == 1) throw std::runtime_error("rank 1 crashed");
        std::vector<float> buf(64);
        try {
          backend.channel(1, 0).recv(buf);  // sender is dead: never arrives
        } catch (const sim::CommTimeoutError& e) {
          err = e;
        }
      });
      FAIL() << "expected the crash to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank 1 crashed");
    }
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->rank(), 0);
    EXPECT_EQ(err->group(), "p2p");
    EXPECT_EQ(err->op(), "recv");
    EXPECT_DOUBLE_EQ(err->elapsed(), 0.25);
  }
  {
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    col::Backend backend(cluster);
    std::optional<sim::CommTimeoutError> err;
    try {
      cluster.run([&](int g) {
        if (g == 1) throw std::runtime_error("rank 1 crashed");
        std::vector<float> buf(64, 1.0f);
        try {
          backend.channel(0, 1).send(buf);  // receiver is dead: never consumed
        } catch (const sim::CommTimeoutError& e) {
          err = e;
        }
      });
      FAIL() << "expected the crash to propagate";
    } catch (const std::runtime_error&) {
    }
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->op(), "send");
  }
}

TEST(FaultMatrix, StragglerSlowsClockButKeepsLossesBitIdentical) {
  // A transient compute straggler is a performance fault, not a correctness
  // fault: the trained losses stay bit-identical, only sim-time stretches.
  auto run_training = [](double factor) {
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    if (factor > 1.0) {
      sim::FaultPlan plan;
      plan.straggler(1, 0.0, 1e9, factor);
      cluster.install_faults(plan);
    }
    col::Backend backend(cluster);
    core::Config cfg;
    cfg.data_parallel_size = 2;
    core::ParallelContext ctx(backend, cfg);
    data::SyntheticClassification ds(256, 6, 3, 101);
    std::vector<std::vector<float>> losses(2);
    cluster.run([&](int g) {
      tp::Env env{&ctx, g};
      nn::Sequential net;
      net.add(std::make_unique<nn::Linear>("m", 6, 3, 102));
      auto eng = engine::initialize(
          env, net, std::make_unique<optim::Sgd>(net.parameters(), 0.1f));
      data::DataLoader loader(ds, 8, g, 2);
      for (int s = 0; s < 4; ++s) {
        env.dev().compute_fp32(1e9, "step");  // the compute the fault stretches
        auto batch = loader.next(s);
        eng->zero_grad();
        auto out = eng->forward(batch.x);
        losses[static_cast<std::size_t>(g)].push_back(
            eng->criterion(out, batch.labels));
        eng->backward();
        eng->step();
      }
    });
    return std::pair{losses, cluster.max_clock()};
  };
  const auto base = run_training(1.0);
  const auto slow = run_training(4.0);
  for (int g = 0; g < 2; ++g) {
    ASSERT_EQ(base.first[static_cast<std::size_t>(g)].size(),
              slow.first[static_cast<std::size_t>(g)].size());
    for (std::size_t s = 0; s < base.first[0].size(); ++s) {
      ASSERT_EQ(base.first[static_cast<std::size_t>(g)][s],
                slow.first[static_cast<std::size_t>(g)][s])
          << "rank " << g << " step " << s;
    }
  }
  EXPECT_GT(slow.second, base.second);  // straggling shows up only in time
}

TEST(FaultMatrix, LinkDegradeStretchesCommButPreservesData) {
  auto run_all_reduce = [](bool degrade) {
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    if (degrade) {
      sim::FaultPlan plan;
      plan.degrade_links(0.0, 1e9, 8.0);
      cluster.install_faults(plan);
    }
    col::Backend backend(cluster);
    cluster.run([&](int g) {
      std::vector<float> buf(1 << 16, static_cast<float>(g + 1));
      backend.world().all_reduce(g, buf);
      EXPECT_EQ(buf[0], 3.0f);  // 1 + 2, unaffected by the slow fabric
    });
    return cluster.max_clock();
  };
  const double fast = run_all_reduce(false);
  const double slow = run_all_reduce(true);
  EXPECT_GT(slow, fast);
}

TEST(FaultMatrix, TransientCommRetriesThenSucceeds) {
  // Collectives starting inside the transient window back off (base 0.25,
  // then decorrelated jitter >= base) until the attempt lands outside it;
  // the data is intact and the backoff shows up on the fault trace lane.
  sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
  sim::FaultPlan plan;
  plan.transient_comm(0.0, 0.4);  // retry_base 0.25: succeeds on attempt 3
  cluster.install_faults(plan);
  cluster.enable_tracing();
  col::Backend backend(cluster);
  cluster.run([&](int g) {
    std::vector<float> buf(256, static_cast<float>(g + 1));
    backend.world().all_reduce(g, buf);
    EXPECT_EQ(buf[0], 3.0f);
  });
  // Retry 1 charges exactly base (0.25, still inside the window), retry 2
  // draws jitter in [base, 3*base) and lands past 0.4 — at least 0.5 total.
  EXPECT_GE(cluster.max_clock(), 0.5);
  bool saw_retry_span = false;
  for (const auto& e : cluster.tracer()->rank(0).events()) {
    if (e.cat == obs::Category::kFault &&
        e.name.find(".retry") != std::string::npos) {
      saw_retry_span = true;
    }
  }
  EXPECT_TRUE(saw_retry_span);
}

TEST(FaultMatrix, TransientBackoffDecorrelatedButSeeded) {
  // Two collectives hitting the same window from different start times must
  // draw different backoff schedules (no synchronized retry storm), while
  // the same (seed, start time) always reproduces the same schedule and a
  // different CA_FAULT_SEED moves it.
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.max_retries = 8;
  plan.transient_comm(0.0, 2.0);
  sim::FaultInjector fi(plan);

  const auto a = fi.transient_delay(0.0);
  const auto b = fi.transient_delay(0.125);
  ASSERT_FALSE(a.gave_up);
  ASSERT_FALSE(b.gave_up);
  ASSERT_GE(a.retries, 3);  // enough attempts for jitter to kick in
  EXPECT_NE(a.delay, b.delay);  // schedules decorrelate by start time
  // Reproducible: identical arguments yield a bit-identical schedule.
  const auto a2 = fi.transient_delay(0.0);
  EXPECT_EQ(std::memcmp(&a.delay, &a2.delay, sizeof(double)), 0);
  EXPECT_EQ(a.retries, a2.retries);
  // Seed-sensitive: a different seed shifts the jittered attempts.
  sim::FaultPlan other = plan;
  other.seed = 8;
  const auto c = sim::FaultInjector(other).transient_delay(0.0);
  EXPECT_NE(a.delay, c.delay);
  // Every backoff respects the floor: k retries cost at least k * base.
  EXPECT_GE(a.delay, plan.retry_base * a.retries);
}

TEST(FaultMatrix, TransientCommGivesUpSymmetrically) {
  // A fabric fault outlasting the retry budget promotes to CommTimeoutError
  // on EVERY member (same verdict from the symmetric start time) — nobody
  // hangs, and no rank is recorded as dead.
  sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
  sim::FaultPlan plan;
  plan.transient_comm(0.0, 100.0);
  plan.max_retries = 3;
  cluster.install_faults(plan);
  col::Backend backend(cluster);
  try {
    cluster.run([&](int g) {
      std::vector<float> buf(64, 1.0f);
      backend.world().all_reduce(g, buf);
    });
    FAIL() << "expected CommTimeoutError";
  } catch (const sim::CommTimeoutError& e) {
    EXPECT_EQ(e.op(), "all_reduce");
    EXPECT_NE(std::string(e.what()).find("transient"), std::string::npos);
  }
  EXPECT_TRUE(cluster.fault_state().dead_ranks().empty());
}

TEST(FaultMatrix, NanSkipMatchesManualSkipTrajectory) {
  // NaN injection on ONE rank's gradients must skip the optimizer update on
  // EVERY rank (consensus), leaving a trajectory bit-identical to a run that
  // deliberately skips the same step.
  const int steps = 5;
  auto run_training = [&](bool inject) {
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    if (inject) {
      sim::FaultPlan plan;
      plan.corrupt_grads(1, 2);
      cluster.install_faults(plan);
    }
    col::Backend backend(cluster);
    core::Config cfg;
    cfg.data_parallel_size = 2;
    core::ParallelContext ctx(backend, cfg);
    data::SyntheticClassification ds(256, 6, 3, 111);
    std::vector<std::vector<float>> losses(2);
    std::vector<t::Tensor> weights(2);
    std::array<std::int64_t, 2> skipped{};
    cluster.run([&](int g) {
      nn::Sequential net;
      net.add(std::make_unique<nn::Linear>("m", 6, 3, 112));
      engine::Engine::Options opts;
      opts.grad_sync = engine::Engine::Options::GradSync::kSerial;
      auto eng = engine::initialize(
          tp::Env{&ctx, g}, net,
          std::make_unique<optim::Adam>(net.parameters(),
                                        optim::Adam::Hyper{0.01f}),
          opts);
      data::DataLoader loader(ds, 8, g, 2);
      for (int s = 0; s < steps; ++s) {
        auto batch = loader.next(s);
        eng->zero_grad();
        auto out = eng->forward(batch.x);
        losses[static_cast<std::size_t>(g)].push_back(
            eng->criterion(out, batch.labels));
        eng->backward();
        if (!inject && s == 2) continue;  // the reference skips by hand
        eng->step();
      }
      skipped[static_cast<std::size_t>(g)] = eng->skipped_steps();
      weights[static_cast<std::size_t>(g)] = net.parameters()[0]->value.clone();
    });
    return std::tuple{losses, weights, skipped};
  };
  const auto [ref_losses, ref_w, ref_skipped] = run_training(false);
  const auto [inj_losses, inj_w, inj_skipped] = run_training(true);

  EXPECT_EQ(ref_skipped, (std::array<std::int64_t, 2>{0, 0}));
  // the guard skipped on BOTH ranks although only rank 1 was corrupted
  EXPECT_EQ(inj_skipped, (std::array<std::int64_t, 2>{1, 1}));
  for (int g = 0; g < 2; ++g) {
    for (int s = 0; s < steps; ++s) {
      ASSERT_EQ(ref_losses[static_cast<std::size_t>(g)][static_cast<std::size_t>(s)],
                inj_losses[static_cast<std::size_t>(g)][static_cast<std::size_t>(s)])
          << "rank " << g << " step " << s;
    }
    EXPECT_EQ(t::max_diff(ref_w[static_cast<std::size_t>(g)],
                          inj_w[static_cast<std::size_t>(g)]),
              0.0f);
  }
  EXPECT_EQ(t::max_diff(inj_w[0], inj_w[1]), 0.0f);  // replicas never diverged
}

TEST(FaultMatrix, ZeroNanSkipIsSymmetricAcrossRanks) {
  // Same contract under ZeRO, where the guard must fire BEFORE the grad
  // reduce (a NaN entering the reduce would poison every rank's shard).
  const int steps = 3;
  // serial Adam reference that skips step 1 by hand
  data::SyntheticClassification ds(512, 6, 3, 61);
  nn::Linear ref_model("m", 6, 3, 62);
  optim::Adam ref_opt(ref_model.parameters(), {});
  for (int s = 0; s < steps; ++s) {
    auto x = ds.batch_features(s * 8, 8);
    auto y = ds.batch_labels(s * 8, 8);
    ref_opt.zero_grad();
    auto out = ref_model.forward(x);
    t::Tensor dl;
    t::cross_entropy(out, y, dl);
    ref_model.backward(dl);
    if (s != 1) ref_opt.step();
  }

  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  // Trajectory is compared against the serial Adam reference: fp32 wire.
  w.ctx.set_comm_dtype(t::Dtype::kF32);
  sim::FaultPlan plan;
  plan.corrupt_grads(0, 1);
  w.cluster.install_faults(plan);
  std::vector<t::Tensor> weights(2);
  std::array<std::int64_t, 2> skipped{};
  w.cluster.run([&](int g) {
    nn::Linear model("m", 6, 3, 62);
    engine::ZeroEngine eng(w.env(g), model, {}, /*stage=*/2);
    for (int s = 0; s < steps; ++s) {
      auto x = ds.batch_features(s * 8, 8);
      auto y = ds.batch_labels(s * 8, 8);
      eng.zero_grad();
      auto out = eng.forward(x);
      eng.criterion(out, y);
      eng.backward();
      eng.step();
    }
    skipped[static_cast<std::size_t>(g)] = eng.skipped_steps();
    eng.optimizer().gather_params();
    weights[static_cast<std::size_t>(g)] = model.weight().value.clone();
  });
  EXPECT_EQ(skipped, (std::array<std::int64_t, 2>{1, 1}));
  EXPECT_TRUE(t::allclose(weights[0], ref_model.weight().value, 1e-5f));
  EXPECT_EQ(t::max_diff(weights[0], weights[1]), 0.0f);
}

TEST(FaultMatrix, CheckpointKillRestoreBitIdenticalAdam) {
  // Train 6 steps uninterrupted; train 4 steps with a periodic checkpoint and
  // "kill" the job; restore into a fresh world and finish. The surviving
  // steps must see exactly the batches — and produce exactly the losses and
  // weights — of the uninterrupted run.
  const std::string path = ::testing::TempDir() + "ca_ckpt_adam.bin";
  core::Config cfg;
  cfg.data_parallel_size = 2;
  data::SyntheticClassification ds(512, 6, 3, 121);

  std::vector<float> ref_losses;
  t::Tensor ref_w;
  {
    World w(cfg);
    w.cluster.run([&](int g) {
      nn::Sequential net;
      net.add(std::make_unique<nn::Linear>("m", 6, 3, 122));
      auto eng = engine::initialize(
          w.env(g), net,
          std::make_unique<optim::Adam>(net.parameters(),
                                        optim::Adam::Hyper{0.01f}));
      engine::Trainer trainer(*eng);
      auto& hist =
          trainer.register_hook(std::make_unique<engine::LossHistoryHook>());
      data::DataLoader loader(ds, 8, g, 2);
      trainer.fit(loader, 1, 6);
      if (g == 0) {
        ref_losses = hist.losses();
        ref_w = net.parameters()[0]->value.clone();
      }
    });
  }
  {
    World w(cfg);  // the doomed run: checkpoint every 2 steps, die after 4
    w.cluster.run([&](int g) {
      nn::Sequential net;
      net.add(std::make_unique<nn::Linear>("m", 6, 3, 122));
      auto eng = engine::initialize(
          w.env(g), net,
          std::make_unique<optim::Adam>(net.parameters(),
                                        optim::Adam::Hyper{0.01f}));
      engine::Trainer trainer(*eng);
      auto& ck = trainer.register_hook(std::make_unique<engine::CheckpointHook>(
          w.env(g), net, eng->optimizer(), path, 2));
      data::DataLoader loader(ds, 8, g, 2);
      trainer.fit(loader, 1, 4);
      EXPECT_EQ(ck.saves(), 2);  // after steps 2 and 4
    });
    EXPECT_EQ(engine::checkpoint_step(path), 4);
  }
  {
    World w(cfg);  // recovery: restore and run the remaining schedule
    std::vector<float> res_losses;
    t::Tensor res_w;
    w.cluster.run([&](int g) {
      nn::Sequential net;
      net.add(std::make_unique<nn::Linear>("m", 6, 3, 122));
      auto eng = engine::initialize(
          w.env(g), net,
          std::make_unique<optim::Adam>(net.parameters(),
                                        optim::Adam::Hyper{0.01f}));
      const std::int64_t step =
          engine::load_checkpoint(w.env(g), net, eng->optimizer(), path);
      EXPECT_EQ(step, 4);
      eng->set_step_count(step);
      engine::Trainer trainer(*eng);
      auto& hist =
          trainer.register_hook(std::make_unique<engine::LossHistoryHook>());
      data::DataLoader loader(ds, 8, g, 2);
      trainer.fit(loader, 1, 6, /*start_step=*/static_cast<int>(step));
      if (g == 0) {
        res_losses = hist.losses();
        res_w = net.parameters()[0]->value.clone();
      }
    });
    ASSERT_EQ(ref_losses.size(), 6u);
    ASSERT_EQ(res_losses.size(), 2u);
    ASSERT_EQ(res_losses[0], ref_losses[4]);  // bit-identical resume
    ASSERT_EQ(res_losses[1], ref_losses[5]);
    EXPECT_EQ(t::max_diff(res_w, ref_w), 0.0f);
  }
}

TEST(FaultMatrix, CheckpointRestoreHybridAdam) {
  // HybridAdam keeps its moments on the CPU pool; its serialized state must
  // restore bit-identically all the same.
  const std::string path = ::testing::TempDir() + "ca_ckpt_hybrid.bin";
  core::Config cfg;  // single rank
  data::SyntheticClassification ds(256, 6, 3, 131);

  std::vector<float> ref_losses;
  t::Tensor ref_w;
  {
    World w(cfg);
    w.cluster.run([&](int g) {
      (void)g;
      nn::Sequential net;
      net.add(std::make_unique<nn::Linear>("m", 6, 3, 132));
      auto eng = engine::initialize(
          w.env(0), net,
          std::make_unique<zero::HybridAdam>(w.env(0), net.parameters(),
                                             optim::Adam::Hyper{0.01f}));
      for (int s = 0; s < 4; ++s) {
        auto x = ds.batch_features(s * 8, 8);
        auto y = ds.batch_labels(s * 8, 8);
        eng->zero_grad();
        auto out = eng->forward(x);
        ref_losses.push_back(eng->criterion(out, y));
        eng->backward();
        eng->step();
        if (s == 1) {
          engine::save_checkpoint(w.env(0), net, eng->optimizer(), 2, path);
        }
      }
      ref_w = net.parameters()[0]->value.clone();
    });
  }
  {
    World w(cfg);
    w.cluster.run([&](int g) {
      (void)g;
      nn::Sequential net;
      net.add(std::make_unique<nn::Linear>("m", 6, 3, 132));
      auto eng = engine::initialize(
          w.env(0), net,
          std::make_unique<zero::HybridAdam>(w.env(0), net.parameters(),
                                             optim::Adam::Hyper{0.01f}));
      const std::int64_t step =
          engine::load_checkpoint(w.env(0), net, eng->optimizer(), path);
      ASSERT_EQ(step, 2);
      eng->set_step_count(step);
      for (int s = 2; s < 4; ++s) {
        auto x = ds.batch_features(s * 8, 8);
        auto y = ds.batch_labels(s * 8, 8);
        eng->zero_grad();
        auto out = eng->forward(x);
        ASSERT_EQ(eng->criterion(out, y),
                  ref_losses[static_cast<std::size_t>(s)]);
        eng->backward();
        eng->step();
      }
      EXPECT_EQ(t::max_diff(net.parameters()[0]->value, ref_w), 0.0f);
    });
  }
}

TEST(FaultMatrix, ZeroCheckpointRestoreBitIdenticalStage3) {
  // ZeRO stage 3: parameter values live only in the shards / the optimizer's
  // gathered masters. Save mid-run, restore into a fresh world, finish —
  // losses and final weights bit-identical to the uninterrupted run.
  const std::string path = ::testing::TempDir() + "ca_ckpt_zero3.bin";
  core::Config cfg;
  cfg.data_parallel_size = 2;
  data::SyntheticClassification ds(512, 6, 3, 61);

  std::vector<float> tail_losses;  // losses after the save point (rank 0)
  t::Tensor ref_w;
  {
    World w(cfg);
    w.cluster.run([&](int g) {
      nn::Linear model("m", 6, 3, 62);
      engine::ZeroEngine eng(w.env(g), model, {}, /*stage=*/3);
      for (int s = 0; s < 4; ++s) {
        auto x = ds.batch_features(s * 8, 8);
        auto y = ds.batch_labels(s * 8, 8);
        eng.zero_grad();
        auto out = eng.forward(x);
        const float loss = eng.criterion(out, y);
        eng.backward();
        eng.step();
        if (s == 1) {
          engine::save_checkpoint(w.env(g), model, eng.optimizer(),
                                  eng.steps_taken(), path);
        }
        if (s >= 2 && g == 0) tail_losses.push_back(loss);
      }
      eng.optimizer().gather_params();
      if (g == 0) ref_w = model.weight().value.clone();
    });
  }
  {
    World w(cfg);
    w.cluster.run([&](int g) {
      nn::Linear model("m", 6, 3, 62);
      engine::ZeroEngine eng(w.env(g), model, {}, /*stage=*/3);
      const std::int64_t step =
          engine::load_checkpoint(w.env(g), model, eng.optimizer(), path);
      ASSERT_EQ(step, 2);
      ASSERT_EQ(eng.optimizer().steps_taken(), 2);  // Adam t restored
      eng.set_step_count(step);
      for (int s = 2; s < 4; ++s) {
        auto x = ds.batch_features(s * 8, 8);
        auto y = ds.batch_labels(s * 8, 8);
        eng.zero_grad();
        auto out = eng.forward(x);
        const float loss = eng.criterion(out, y);
        eng.backward();
        eng.step();
        if (g == 0) {
          ASSERT_EQ(loss, tail_losses[static_cast<std::size_t>(s - 2)]);
        }
      }
      eng.optimizer().gather_params();
      if (g == 0) {
        EXPECT_EQ(t::max_diff(model.weight().value, ref_w), 0.0f);
      }
    });
  }
}

TEST(FaultMatrix, ZeroCheckpointReshardsOnShrunkWorld) {
  // Checkpoints are world-size-agnostic: written from 4 DP ranks, restored
  // onto the 2 survivors. The new ZeroOptimizer re-slices the full-form
  // state by its own layout, and training continues on the serial-Adam
  // trajectory.
  const std::string path = ::testing::TempDir() + "ca_ckpt_zero_shrunk.bin";
  data::SyntheticClassification ds(512, 6, 3, 61);
  // serial Adam reference, 4 uninterrupted steps
  nn::Linear ref_model("m", 6, 3, 62);
  optim::Adam ref_opt(ref_model.parameters(), {});
  for (int s = 0; s < 4; ++s) {
    auto x = ds.batch_features(s * 8, 8);
    auto y = ds.batch_labels(s * 8, 8);
    ref_opt.zero_grad();
    auto out = ref_model.forward(x);
    t::Tensor dl;
    t::cross_entropy(out, y, dl);
    ref_model.backward(dl);
    ref_opt.step();
  }
  {
    core::Config cfg;
    cfg.data_parallel_size = 4;  // the original cluster
    World w(cfg);
    // Compared against the serial Adam trajectory below: fp32 wire.
    w.ctx.set_comm_dtype(t::Dtype::kF32);
    w.cluster.run([&](int g) {
      nn::Linear model("m", 6, 3, 62);
      engine::ZeroEngine eng(w.env(g), model, {}, /*stage=*/2);
      for (int s = 0; s < 2; ++s) {
        auto x = ds.batch_features(s * 8, 8);
        auto y = ds.batch_labels(s * 8, 8);
        eng.zero_grad();
        auto out = eng.forward(x);
        eng.criterion(out, y);
        eng.backward();
        eng.step();
      }
      engine::save_checkpoint(w.env(g), model, eng.optimizer(),
                              eng.steps_taken(), path);
    });
  }
  {
    core::Config cfg;
    cfg.data_parallel_size = 2;  // one device lost; rebuild smaller
    World w(cfg);
    w.ctx.set_comm_dtype(t::Dtype::kF32);
    std::vector<t::Tensor> weights(2);
    w.cluster.run([&](int g) {
      nn::Linear model("m", 6, 3, 62);
      engine::ZeroEngine eng(w.env(g), model, {}, /*stage=*/2);
      const std::int64_t step =
          engine::load_checkpoint(w.env(g), model, eng.optimizer(), path);
      ASSERT_EQ(step, 2);
      eng.set_step_count(step);
      for (int s = 2; s < 4; ++s) {
        auto x = ds.batch_features(s * 8, 8);
        auto y = ds.batch_labels(s * 8, 8);
        eng.zero_grad();
        auto out = eng.forward(x);
        eng.criterion(out, y);
        eng.backward();
        eng.step();
      }
      eng.optimizer().gather_params();
      weights[static_cast<std::size_t>(g)] = model.weight().value.clone();
    });
    EXPECT_TRUE(t::allclose(weights[0], ref_model.weight().value, 1e-4f));
    EXPECT_EQ(t::max_diff(weights[0], weights[1]), 0.0f);
  }
}

TEST(FaultMatrix, OomErrorCarriesPoolRankAndBytes) {
  sim::MemoryTracker mem("gpu3", 1000, /*rank=*/3);
  mem.alloc(600);
  try {
    mem.alloc(600);
    FAIL() << "expected OomError";
  } catch (const sim::OomError& e) {
    EXPECT_EQ(e.pool(), "gpu3");
    EXPECT_EQ(e.rank(), 3);
    EXPECT_EQ(e.requested(), 600);
    EXPECT_EQ(e.available(), 400);
    const std::string what = e.what();
    EXPECT_NE(what.find("pool 'gpu3'"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
    EXPECT_NE(what.find("requested 600"), std::string::npos) << what;
    EXPECT_NE(what.find("400"), std::string::npos) << what;
  }
}

namespace {

struct ThrowingInner : nn::Module {
  bool throw_forward = false;
  bool throw_backward = false;
  t::Tensor forward(const t::Tensor& x) override {
    if (throw_forward) throw std::runtime_error("inner forward fault");
    return x.clone();
  }
  t::Tensor backward(const t::Tensor& dy) override {
    if (throw_backward) throw std::runtime_error("inner backward fault");
    return dy.clone();
  }
};

}  // namespace

TEST(FaultMatrix, ActivationCheckpointNoLeakOnThrowingInner) {
  auto inner = std::make_unique<ThrowingInner>();
  auto* raw = inner.get();
  nn::Checkpoint ck(std::move(inner));
  auto x = t::randn(t::Shape{4, 4}, 141);

  // backward (recompute path) throws: the held input must still be released
  auto y = ck.forward(x);
  EXPECT_GT(ck.held_bytes(), 0);
  raw->throw_backward = true;
  EXPECT_THROW(ck.backward(y), std::runtime_error);
  EXPECT_EQ(ck.held_bytes(), 0);

  // forward throws: nothing is saved for the failed step
  raw->throw_backward = false;
  raw->throw_forward = true;
  EXPECT_THROW(ck.forward(x), std::runtime_error);
  EXPECT_EQ(ck.held_bytes(), 0);
}

TEST(FaultMatrix, FromEnvParsesFullPlan) {
  ASSERT_FALSE(sim::FaultPlan::from_env().has_value());
  {
    ScopedEnv e1("CA_FAULT_FAILSTOP", "2@5");
    ScopedEnv e2("CA_FAULT_STRAGGLER", "1@0.5:2.0:3.0");
    ScopedEnv e3("CA_FAULT_LINK", "1.0:0.5:2.0");
    ScopedEnv e4("CA_FAULT_NAN", "0@3");
    ScopedEnv e5("CA_FAULT_TRANSIENT", "0.1:0.2");
    ScopedEnv e6("CA_FAULT_WATCHDOG", "0.75");
    ScopedEnv e7("CA_FAULT_RETRY_BASE", "0.5");
    ScopedEnv e8("CA_FAULT_RETRIES", "7");
    ScopedEnv e9("CA_FAULT_SEED", "42");
    auto plan = sim::FaultPlan::from_env();
    ASSERT_TRUE(plan.has_value());
    ASSERT_EQ(plan->specs.size(), 5u);
    EXPECT_EQ(plan->specs[0].kind, sim::FaultKind::kFailStop);
    EXPECT_EQ(plan->specs[0].rank, 2);
    EXPECT_EQ(plan->specs[0].step, 5);
    EXPECT_EQ(plan->specs[1].kind, sim::FaultKind::kStraggler);
    EXPECT_EQ(plan->specs[1].rank, 1);
    EXPECT_DOUBLE_EQ(plan->specs[1].at, 0.5);
    EXPECT_DOUBLE_EQ(plan->specs[1].duration, 2.0);
    EXPECT_DOUBLE_EQ(plan->specs[1].factor, 3.0);
    EXPECT_EQ(plan->specs[2].kind, sim::FaultKind::kLinkDegrade);
    EXPECT_EQ(plan->specs[3].kind, sim::FaultKind::kGradCorrupt);
    EXPECT_EQ(plan->specs[3].rank, 0);
    EXPECT_EQ(plan->specs[3].step, 3);
    EXPECT_EQ(plan->specs[4].kind, sim::FaultKind::kTransientComm);
    EXPECT_DOUBLE_EQ(plan->specs[4].at, 0.1);
    EXPECT_DOUBLE_EQ(plan->specs[4].duration, 0.2);
    EXPECT_DOUBLE_EQ(plan->watchdog, 0.75);
    EXPECT_DOUBLE_EQ(plan->retry_base, 0.5);
    EXPECT_EQ(plan->max_retries, 7);
    EXPECT_EQ(plan->seed, 42u);
    const double j = plan->jitter(3);
    EXPECT_GE(j, 0.0);
    EXPECT_LT(j, 1.0);
    EXPECT_EQ(plan->jitter(3), j);  // seeded stream is reproducible
  }
  {
    ScopedEnv e("CA_FAULT_FAILSTOP", "1@t2.5");  // clock-triggered form
    auto plan = sim::FaultPlan::from_env();
    ASSERT_TRUE(plan.has_value());
    ASSERT_EQ(plan->specs.size(), 1u);
    EXPECT_EQ(plan->specs[0].step, -1);
    EXPECT_DOUBLE_EQ(plan->specs[0].at, 2.5);
  }
  ASSERT_FALSE(sim::FaultPlan::from_env().has_value());
}

TEST(FaultMatrix, FromEnvRejectsOutOfRangeAndTrailingGarbage) {
  // Each value once slipped through: a negative or too-large retry count
  // (the backoff cap shifts 1 by it), a negative watchdog, a wrapped seed,
  // a number with trailing junk, and an unnamed bare parse error.
  const std::pair<const char*, const char*> cases[] = {
      {"CA_FAULT_RETRIES", "-1"},    {"CA_FAULT_RETRIES", "64"},
      {"CA_FAULT_WATCHDOG", "-2"},   {"CA_FAULT_WATCHDOG", "abc"},
      {"CA_FAULT_SEED", "-1"},       {"CA_FAULT_SEED", "42abc"},
      {"CA_FAULT_FAILSTOP", "2@5x"}, {"CA_FAULT_NAN", "0@-3"},
      {"CA_FAULT_CKPT_CORRUPT", "3x"}};
  for (const auto& [name, value] : cases) {
    ScopedEnv e(name, value);
    try {
      (void)sim::FaultPlan::from_env();
      ADD_FAILURE() << name << "=" << value << " accepted";
    } catch (const std::invalid_argument& ex) {
      const std::string what = ex.what();
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + value + "'"), std::string::npos)
          << what;
    }
  }
}

TEST(FaultMatrix, LaunchArmsInjectorAndWatchdogPrecedence) {
  {
    ScopedEnv e("CA_FAULT_NAN", "0@1");
    auto world = core::launch("data.size=2 fault.watchdog=0.25");
    ASSERT_NE(world->cluster().fault_injector(), nullptr);
    EXPECT_EQ(world->cluster().fault_injector()->plan().specs.size(), 1u);
    // env set no watchdog: the config key applies
    EXPECT_DOUBLE_EQ(world->cluster().fault_state().watchdog(), 0.25);
    {
      ScopedEnv w("CA_FAULT_WATCHDOG", "0.125");  // env wins over config
      auto world2 = core::launch("data.size=2 fault.watchdog=0.25");
      EXPECT_DOUBLE_EQ(world2->cluster().fault_state().watchdog(), 0.125);
    }
  }
  // no CA_FAULT_* at all: injector off, config watchdog still armed
  auto world3 = core::launch("data.size=2 fault.watchdog=0.5");
  EXPECT_EQ(world3->cluster().fault_injector(), nullptr);
  EXPECT_DOUBLE_EQ(world3->cluster().fault_state().watchdog(), 0.5);
}

TEST(FaultMatrix, ConfigKeysParsedAndValidated) {
  const auto cfg = core::parse_config(
      "fault.watchdog=0.5 checkpoint.interval=3 checkpoint.dir=/tmp/ck");
  EXPECT_DOUBLE_EQ(cfg.fault_watchdog, 0.5);
  EXPECT_EQ(cfg.checkpoint_interval, 3);
  EXPECT_EQ(cfg.checkpoint_dir, "/tmp/ck");
  EXPECT_THROW(core::parse_config("fault.watchdog=0"), std::invalid_argument);
  EXPECT_THROW(core::parse_config("fault.watchdog=abc"), std::invalid_argument);
  EXPECT_THROW(core::parse_config("checkpoint.interval=-1"),
               std::invalid_argument);
}

// ---- checkpoint integrity (v2 CRC framing) ----------------------------------

namespace {

/// Single-rank world + trained Linear/Adam pair, checkpointed to `path`.
/// Returns the saved step so callers can assert the round trip.
void write_small_checkpoint(const std::string& path, std::int64_t step,
                            sim::FaultPlan* faults = nullptr) {
  core::Config cfg;
  sim::Cluster cluster(sim::Topology::uniform(1, 100e9));
  if (faults != nullptr) cluster.install_faults(*faults);
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, cfg);
  cluster.run([&](int g) {
    tp::Env env{&ctx, g};
    nn::Linear net("m", 6, 3, 122);
    optim::Adam opt(net.parameters(), optim::Adam::Hyper{0.01f});
    for (nn::Parameter* p : net.parameters()) p->grad.fill(0.5f);
    opt.step();
    engine::save_checkpoint(env, net, opt, step, path);
  });
}

}  // namespace

TEST(FaultMatrix, CorruptCheckpointRaisesStructuredError) {
  const std::string path = ::testing::TempDir() + "ca_ckpt_corrupt.bin";
  write_small_checkpoint(path, 3);

  // Flip one byte inside the params payload: the section layout is fixed
  // (magic 8, then the framed "meta" section of 8+4 + 8 + 8 + 8 = 36 bytes),
  // so offset 80 is well past the params frame header.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(80);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x20);
    f.seekp(80);
    f.write(&b, 1);
  }

  sim::Cluster cluster(sim::Topology::uniform(1, 100e9));
  col::Backend backend(cluster);
  core::Config cfg;
  core::ParallelContext ctx(backend, cfg);
  cluster.run([&](int g) {
    tp::Env env{&ctx, g};
    nn::Linear net("m", 6, 3, 122);
    optim::Adam opt(net.parameters(), optim::Adam::Hyper{0.01f});
    try {
      engine::load_checkpoint(env, net, opt, path);
      FAIL() << "corrupt checkpoint loaded silently";
    } catch (const engine::CheckpointCorruptError& e) {
      EXPECT_EQ(e.path(), path);
      EXPECT_EQ(e.section(), "params");
      EXPECT_GE(e.offset(), 8);  // anchored past the magic
      EXPECT_NE(std::string(e.what()).find("crc mismatch"), std::string::npos);
    }
  });
}

TEST(FaultMatrix, TruncatedCheckpointRaises) {
  const std::string path = ::testing::TempDir() + "ca_ckpt_trunc.bin";
  write_small_checkpoint(path, 3);
  // Chop the tail: the optim section's payload can no longer satisfy its
  // declared length, which must surface as corruption, not a silent zero-fill.
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), 16u);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 9));
  }
  sim::Cluster cluster(sim::Topology::uniform(1, 100e9));
  col::Backend backend(cluster);
  core::Config cfg;
  core::ParallelContext ctx(backend, cfg);
  cluster.run([&](int g) {
    tp::Env env{&ctx, g};
    nn::Linear net("m", 6, 3, 122);
    optim::Adam opt(net.parameters(), optim::Adam::Hyper{0.01f});
    EXPECT_THROW(engine::load_checkpoint(env, net, opt, path),
                 engine::CheckpointCorruptError);
  });
}

TEST(FaultMatrix, CkptCorruptFaultInjected) {
  // The CA_FAULT_CKPT_CORRUPT path end to end: the injector flips a bit in
  // the file written at the matching step, and the next load detects it.
  const std::string path = ::testing::TempDir() + "ca_ckpt_injected.bin";
  auto plan = sim::FaultPlan{}.corrupt_checkpoint(2);
  write_small_checkpoint(path, 2, &plan);

  sim::Cluster cluster(sim::Topology::uniform(1, 100e9));
  col::Backend backend(cluster);
  core::Config cfg;
  core::ParallelContext ctx(backend, cfg);
  cluster.run([&](int g) {
    tp::Env env{&ctx, g};
    nn::Linear net("m", 6, 3, 122);
    optim::Adam opt(net.parameters(), optim::Adam::Hyper{0.01f});
    EXPECT_THROW(engine::load_checkpoint(env, net, opt, path),
                 engine::CheckpointCorruptError);
  });

  // A non-matching step writes a pristine file that loads fine.
  auto plan5 = sim::FaultPlan{}.corrupt_checkpoint(5);
  write_small_checkpoint(path, 2, &plan5);
  cluster.run([&](int g) {
    tp::Env env{&ctx, g};
    nn::Linear net("m", 6, 3, 122);
    optim::Adam opt(net.parameters(), optim::Adam::Hyper{0.01f});
    EXPECT_EQ(engine::load_checkpoint(env, net, opt, path), 2);
  });
}

TEST(FaultMatrix, CheckpointV1StillReadable) {
  // Hand-craft a v1 ("CACKPT01", unframed) stream: magic, step, raw params,
  // raw optimizer state. The v2 reader must accept it unchanged.
  nn::Linear src("m", 6, 3, 122);
  optim::Adam src_opt(src.parameters(), optim::Adam::Hyper{0.01f});
  for (nn::Parameter* p : src.parameters()) p->grad.fill(0.25f);
  src_opt.step();

  std::ostringstream os;
  os.write(engine::kCheckpointMagic, sizeof(engine::kCheckpointMagic));
  core::write_i64(os, 7);  // resume step
  const auto params = src.parameters();
  core::write_i64(os, static_cast<std::int64_t>(params.size()));
  for (const nn::Parameter* p : params) {
    core::write_str(os, p->name);
    core::write_i64(os, p->numel());
    core::write_f32s(os, p->value.data().data(), p->numel());
  }
  src_opt.save_state(os);  // the raw [i64 numel][f32s] hook v1 used
  const std::string v1 = os.str();

  sim::Cluster cluster(sim::Topology::uniform(1, 100e9));
  col::Backend backend(cluster);
  core::Config cfg;
  core::ParallelContext ctx(backend, cfg);
  cluster.run([&](int g) {
    tp::Env env{&ctx, g};
    nn::Linear net("m", 6, 3, 999);  // different seed: restore must win
    optim::Adam opt(net.parameters(), optim::Adam::Hyper{0.01f});
    std::istringstream is(v1);
    EXPECT_EQ(engine::deserialize_checkpoint(env, net, opt, is), 7);
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(t::max_diff(net.parameters()[i]->value, params[i]->value),
                0.0f);
    }
    std::ostringstream a, b;
    opt.save_state(a);
    src_opt.save_state(b);
    EXPECT_EQ(a.str(), b.str());  // moments restored bit-identically
  });
}

TEST(CheckpointSweep, FlipAndTruncateAtEverySectionBoundary) {
  // Damage a CACKPT02 stream within +-9 bytes of every framing boundary (the
  // magic, and each section's name, length, payload and CRC fields): flip a
  // byte three ways, or cut the stream there. Both the stream and the file
  // entry point must reject every case with a structured error.
  const std::string path = ::testing::TempDir() + "ca_ckpt_sweep.bin";
  const std::string damaged = ::testing::TempDir() + "ca_ckpt_sweep_bad.bin";
  write_small_checkpoint(path, 3);
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  const auto n = static_cast<std::int64_t>(bytes.size());

  std::vector<std::int64_t> boundaries{0, 8};
  std::int64_t at = 8;
  for (const std::string name : {"meta", "params", "optim"}) {
    // [i64 name length][name][i64 payload length][payload][i64 crc]
    std::istringstream is(bytes.substr(static_cast<std::size_t>(at)));
    ASSERT_EQ(core::read_str(is), name);
    const std::int64_t len_at = at + 8 + static_cast<std::int64_t>(name.size());
    const std::int64_t payload_at = len_at + 8;
    const std::int64_t crc_at = payload_at + core::read_i64(is);
    at = crc_at + 8;
    boundaries.insert(boundaries.end(), {len_at, payload_at, crc_at, at});
  }
  ASSERT_EQ(at, n);  // the three sections are the whole stream

  sim::Cluster cluster(sim::Topology::uniform(1, 100e9));
  col::Backend backend(cluster);
  core::Config cfg;
  core::ParallelContext ctx(backend, cfg);
  int cases = 0;
  cluster.run([&](int g) {
    tp::Env env{&ctx, g};
    nn::Linear net("m", 6, 3, 122);
    optim::Adam opt(net.parameters(), optim::Adam::Hyper{0.01f});
    const auto rejects = [](const std::string& what, auto load) {
      try {
        load();
        ADD_FAILURE() << what << ": damaged checkpoint loaded";
      } catch (const engine::CheckpointCorruptError&) {
      } catch (const std::invalid_argument&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << what << ": unstructured error: " << e.what();
      }
    };
    const auto expect_rejected = [&](const std::string& what,
                                     const std::string& b) {
      rejects(what + " (stream)", [&] {
        std::istringstream is(b);
        engine::deserialize_checkpoint(env, net, opt, is);
      });
      {
        std::ofstream f(damaged, std::ios::binary | std::ios::trunc);
        f.write(b.data(), static_cast<std::streamsize>(b.size()));
      }
      rejects(what + " (file)",
              [&] { engine::load_checkpoint(env, net, opt, damaged); });
      ++cases;
    };
    {
      std::istringstream is(bytes);
      ASSERT_EQ(engine::deserialize_checkpoint(env, net, opt, is), 3);
    }
    for (const std::int64_t b : boundaries) {
      for (std::int64_t k = -9; k <= 9; ++k) {
        const std::int64_t pos = b + k;
        if (pos < 0 || pos >= n) continue;
        const auto u = static_cast<std::size_t>(pos);
        for (const int mask : {0x01, 0x80, 0xff}) {
          std::string flipped = bytes;
          flipped[u] = static_cast<char>(flipped[u] ^ mask);
          expect_rejected("flip " + std::to_string(mask) + " at " +
                              std::to_string(pos),
                          flipped);
        }
        expect_rejected("cut at " + std::to_string(pos), bytes.substr(0, u));
      }
    }
  });
  EXPECT_GT(cases, 400);
}
