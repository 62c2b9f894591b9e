// Online metrics subsystem tests: histogram bucket math, per-rank sinks and
// cross-rank merge, the hot-path emit points (engine, collectives, ZeRO,
// pipeline, fault retries), clock invariance of instrumentation, the
// calibration report, the straggler detector (catch AND no-false-alarm), the
// CA_METRICS* knobs with env-over-config precedence, and the exporters.
//
// Suites named MetricsScale* run 512 fiber ranks and are excluded from the
// TSan CI lanes (same convention as BackendScale).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "collective/backend.hpp"
#include "core/launch.hpp"
#include "data/synthetic.hpp"
#include "engine/engine.hpp"
#include "engine/zero_engine.hpp"
#include "nn/layers.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "pp/pipeline.hpp"
#include "scoped_env.hpp"
#include "sim/cluster.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;
namespace pp = ca::pp;
namespace obs = ca::obs;
namespace data = ca::data;
namespace engine = ca::engine;

namespace {

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

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

/// A Linear that also charges simulated device compute, so engine timing
/// metrics (and the straggler fault, which stretches compute) have something
/// to measure — plain nn layers do math on the host without advancing the
/// simulated clock.
class ChargedLinear : public nn::Module {
 public:
  ChargedLinear(const tp::Env& env, double flops, std::int64_t in,
                std::int64_t out, std::uint64_t seed)
      : env_(env), flops_(flops), lin_("m", in, out, seed) {}

  t::Tensor forward(const t::Tensor& x) override {
    env_.dev().compute_fp32(flops_, "fwd");
    return lin_.forward(x);
  }
  t::Tensor backward(const t::Tensor& dy) override {
    env_.dev().compute_fp32(flops_, "bwd");
    return lin_.backward(dy);
  }
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    lin_.collect_parameters(out);
  }

 private:
  tp::Env env_;
  double flops_;
  nn::Linear lin_;
};

/// The shared DP training loop of the engine-metric tests: `steps` Listing-1
/// iterations of a ChargedLinear on synthetic data.
void run_dp_training(World& w, int steps, double flops = 1e9) {
  data::SyntheticClassification ds(512, 6, 3, 41);
  const int dp = w.ctx.config().data_parallel_size;
  w.cluster.run([&](int g) {
    ChargedLinear model(w.env(g), flops, 6, 3, 42);
    auto eng = engine::initialize(
        w.env(g), model,
        std::make_unique<ca::optim::Sgd>(model.parameters(), 0.1f));
    data::DataLoader loader(ds, 8, g, dp);
    for (int s = 0; s < steps; ++s) {
      auto batch = loader.next(s);
      eng->zero_grad();
      auto out = eng->forward(batch.x);
      eng->criterion(out, batch.labels);
      eng->backward();
      eng->step();
    }
  });
}

}  // namespace

// ---- histogram bucket math --------------------------------------------------

TEST(MetricsHistogram, ExactMomentsAndLogBuckets) {
  obs::Histogram h;
  h.record(1.0);      // ilogb 0 -> bucket kHistExpOffset
  h.record(3.0);      // ilogb 1
  h.record(0.25e-9);  // ~2^-32
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 4.0 + 0.25e-9);
  EXPECT_DOUBLE_EQ(h.min(), 0.25e-9);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  EXPECT_EQ(h.bucket_of(1.0), obs::kHistExpOffset);
  EXPECT_EQ(h.bucket_of(3.0), obs::kHistExpOffset + 1);
  // the bucket's upper edge is exclusive: 2.0 goes one bucket up from 1.0
  EXPECT_EQ(h.bucket_of(2.0), obs::kHistExpOffset + 1);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper(obs::kHistExpOffset), 2.0);
}

TEST(MetricsHistogram, ClampsBothEndsAndNonPositive) {
  obs::Histogram h(8);  // tiny: indices clamp into [0, 7]
  h.record(0.0);
  h.record(-5.0);
  h.record(1e30);   // far above the top bucket
  h.record(1e-30);  // far below bucket 0
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.buckets()[0], 3);  // zero, negative, underflow
  EXPECT_EQ(h.buckets()[7], 1);  // overflow clamps into the last bucket
  EXPECT_DOUBLE_EQ(h.max(), 1e30);  // exact extrema survive the clamping
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
}

TEST(MetricsHistogram, MergeAlignsBucketsAndExtrema) {
  obs::Histogram a(16), b(16);
  a.record(1.0);
  b.record(4.0);
  b.record(0.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.sum(), 5.5);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  // merging an empty histogram must not disturb extrema
  a.merge(obs::Histogram(16));
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  // wider source: overflow counts clamp into the last bucket, count exact
  obs::Histogram narrow(4), wide(64);
  wide.record(1.0);
  narrow.merge(wide);
  EXPECT_EQ(narrow.count(), 1);
  EXPECT_EQ(narrow.buckets()[3], 1);
}

TEST(MetricsSink, ClearZeroesInPlaceKeepingInstrumentAddresses) {
  obs::MetricsSink sink;
  obs::Counter& c = sink.counter("x");
  c.inc(5);
  sink.hist("h").record(1.0);
  sink.record_series("s", 0, 2.0);
  sink.observe_comm("g", "all_reduce", "ring", "f32", 64, 1.0, 1.0);
  sink.clear();
  EXPECT_EQ(sink.counter("x").value, 0);
  EXPECT_EQ(&sink.counter("x"), &c);  // node survived: cached refs stay valid
  EXPECT_EQ(sink.hist("h").count(), 0);
  EXPECT_TRUE(sink.series("s").points.empty());
  EXPECT_TRUE(sink.comm().empty());
}

TEST(MetricsRegistry, MergesCountersHistsAndCommAcrossRanks) {
  obs::MetricsRegistry reg(3, 32);
  for (int r = 0; r < 3; ++r) {
    reg.rank(r).counter("steps").inc(r + 1);
    reg.rank(r).hist("d").record(static_cast<double>(r + 1));
    reg.rank(r).observe_comm("world", "all_reduce", "ring", "f32", 1024,
                             0.5, 0.5);
  }
  const auto counters = reg.merged_counters();
  EXPECT_EQ(counters.at("steps"), 6);
  const auto hists = reg.merged_hists();
  EXPECT_EQ(hists.at("d").count(), 3);
  EXPECT_DOUBLE_EQ(hists.at("d").min(), 1.0);
  EXPECT_DOUBLE_EQ(hists.at("d").max(), 3.0);
  const auto comm = reg.merged_comm();
  ASSERT_EQ(comm.size(), 1u);
  EXPECT_EQ(comm.begin()->second.count, 3);
  EXPECT_DOUBLE_EQ(comm.begin()->second.sum_s, 1.5);
}

// ---- engine + collective emit points ----------------------------------------

TEST(MetricsEngine, PerStepCountersHistsAndSeries) {
  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  auto& reg = w.cluster.enable_metrics();
  const int steps = 4;
  run_dp_training(w, steps);

  const auto counters = reg.merged_counters();
  EXPECT_EQ(counters.at("engine.steps"), 2 * steps);
  EXPECT_GE(counters.at("engine.bucket_flushes"), 2 * steps);
  EXPECT_GT(counters.at("comm.bytes"), 0);

  const auto hists = reg.merged_hists();
  EXPECT_EQ(hists.at("engine.step_s").count(), 2 * steps);
  EXPECT_EQ(hists.at("engine.grad_sync_s").count(), 2 * steps);
  EXPECT_EQ(hists.at("engine.optim_s").count(), 2 * steps);
  // compute is simulated (ChargedLinear), so fwd/bwd moments are positive
  EXPECT_GT(hists.at("engine.fwd_s").min(), 0.0);
  EXPECT_GT(hists.at("engine.bwd_s").min(), 0.0);

  for (int r = 0; r < 2; ++r) {
    const auto& series = reg.rank(r).all_series();
    ASSERT_EQ(series.count("engine.compute_s"), 1u);
    ASSERT_EQ(series.count("engine.sync_wait_s"), 1u);
    const auto& pts = series.at("engine.compute_s").points;
    ASSERT_EQ(pts.size(), static_cast<std::size_t>(steps));
    for (int s = 0; s < steps; ++s) {
      EXPECT_EQ(pts[static_cast<std::size_t>(s)].step, s);
      EXPECT_GT(pts[static_cast<std::size_t>(s)].value, 0.0);
    }
  }
}

TEST(MetricsComm, SettledCollectivesRecordMeasuredEqualPredictedWhenClean) {
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  col::Backend backend(cluster);
  auto& reg = cluster.enable_metrics();
  cluster.run([&](int g) {
    std::vector<float> buf(1 << 12, 1.0f);
    backend.world().all_reduce(g, buf);
  });
  const auto comm = reg.merged_comm();
  ASSERT_EQ(comm.size(), 1u);
  const auto& [key, stat] = *comm.begin();
  EXPECT_EQ(key.group, "world");
  EXPECT_EQ(key.op, "all_reduce");
  EXPECT_EQ(key.dtype, "f32");
  EXPECT_EQ(key.bytes, (1 << 12) * 4);
  EXPECT_EQ(stat.count, 4);  // one observation per member rank
  // clean run: the span settles at exactly the cost-model prediction
  EXPECT_DOUBLE_EQ(stat.sum_s, stat.sum_pred_s);
  EXPECT_GT(stat.min_s, 0.0);
}

TEST(MetricsComm, LinkDegradeFaultSkewsMeasuredAbovePredicted) {
  sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
  sim::FaultPlan plan;
  plan.degrade_links(0.0, 1e9, 8.0);
  cluster.install_faults(plan);
  col::Backend backend(cluster);
  auto& reg = cluster.enable_metrics();
  cluster.run([&](int g) {
    std::vector<float> buf(1 << 14, 1.0f);
    backend.world().all_reduce(g, buf);
  });
  const auto comm = reg.merged_comm();
  ASSERT_EQ(comm.size(), 1u);
  const auto& stat = comm.begin()->second;
  // the prediction stays the pure model; the measured time carries the fault
  EXPECT_GT(stat.sum_s, stat.sum_pred_s * 2.0);
}

TEST(MetricsClockInvariance, EnablingMetricsNeverChangesSimulatedTime) {
  auto wall = [](bool metrics_on) {
    core::Config cfg;
    cfg.data_parallel_size = 2;
    World w(cfg);
    if (metrics_on) w.cluster.enable_metrics();
    run_dp_training(w, 3);
    return w.cluster.max_clock();
  };
  const double off = wall(false);
  const double on = wall(true);
  EXPECT_EQ(off, on);  // bit-identical: observation must not perturb the sim
  EXPECT_GT(on, 0.0);
}

TEST(MetricsLifecycle, DisableDetachesAndResetStatsClearsValues) {
  sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
  col::Backend backend(cluster);
  auto& reg = cluster.enable_metrics();
  EXPECT_EQ(&cluster.enable_metrics(), &reg);  // idempotent
  cluster.run([&](int g) {
    std::vector<float> buf(256, 1.0f);
    backend.world().all_reduce(g, buf);
  });
  EXPECT_FALSE(reg.merged_comm().empty());
  cluster.reset_stats();
  EXPECT_TRUE(reg.merged_comm().empty());

  cluster.disable_metrics();
  EXPECT_EQ(cluster.device(0).metrics(), nullptr);
  cluster.run([&](int g) {
    std::vector<float> buf(256, 1.0f);
    backend.world().all_reduce(g, buf);
  });
  EXPECT_TRUE(reg.merged_comm().empty());  // detached: nothing recorded
}

// ---- ZeRO / pipeline / fault emit points ------------------------------------

TEST(MetricsZero, ShardTrafficCountersAndStepHist) {
  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  auto& reg = w.cluster.enable_metrics();
  data::SyntheticClassification ds(256, 6, 3, 61);
  const int steps = 3;
  w.cluster.run([&](int g) {
    nn::Sequential net;
    net.add(std::make_unique<nn::Linear>("l", 6, 3, 62));
    engine::ZeroEngine eng(w.env(g), net, {}, /*stage=*/3);
    data::DataLoader loader(ds, 8, g, 2);
    for (int s = 0; s < steps; ++s) {
      auto batch = loader.next(s);
      eng.zero_grad();
      auto out = eng.forward(batch.x);
      eng.criterion(out, batch.labels);
      eng.backward();
      eng.step();
    }
  });
  const auto counters = reg.merged_counters();
  EXPECT_GT(counters.at("zero.reduce_bytes"), 0);
  EXPECT_GT(counters.at("zero.gather_bytes"), 0);  // stage 3 re-gathers params
  EXPECT_EQ(reg.merged_hists().at("zero.step_s").count(), 2 * steps);
}

TEST(MetricsPipeline, ExposedWaitPerMicroIsRecorded) {
  core::Config cfg;
  cfg.pipeline_parallel_size = 2;
  World w(cfg);
  auto& reg = w.cluster.enable_metrics();
  const int micros = 4;
  std::vector<t::Tensor> inputs;
  for (int m = 0; m < micros; ++m)
    inputs.push_back(t::randn(t::Shape{2, 4}, 300 + static_cast<std::uint64_t>(m)));
  const std::vector<std::int64_t> labels{0, 1};
  w.cluster.run([&](int g) {
    if (g == 0) {
      nn::Linear stage("s1", 4, 6, 11);
      pp::Pipeline pipe(w.env(0), stage, t::Shape{2, 4},
                        pp::Schedule::kOneFOneB);
      pipe.train_step(micros, inputs, {});
    } else {
      nn::Linear stage("s2", 6, 2, 12);
      pp::Pipeline pipe(w.env(1), stage, t::Shape{2, 6},
                        pp::Schedule::kOneFOneB);
      pipe.train_step(micros, {},
                      [&](const t::Tensor& y, t::Tensor& dy, int) {
                        t::Tensor dl;
                        const float loss = t::cross_entropy(y, labels, dl);
                        t::scale_(dl, 1.0f / static_cast<float>(micros));
                        dy = dl;
                        return loss;
                      });
    }
  });
  const auto hists = reg.merged_hists();
  // stage 1 waits on activations every micro; stage 0 waits on gradients
  ASSERT_EQ(hists.count("pp.fwd_wait_s"), 1u);
  EXPECT_EQ(hists.at("pp.fwd_wait_s").count(), micros);
  ASSERT_EQ(hists.count("pp.bwd_wait_s"), 1u);
  EXPECT_EQ(hists.at("pp.bwd_wait_s").count(), micros);

  // the executor publishes its bubble estimate as a per-rank gauge, which the
  // Prometheus exporter carries with a rank label
  for (int g = 0; g < 2; ++g) {
    const auto& gauges = reg.rank(g).gauges();
    ASSERT_EQ(gauges.count("pp.bubble_fraction"), 1u);
    const double b = gauges.at("pp.bubble_fraction").value;
    EXPECT_GE(b, 0.0);
    EXPECT_LT(b, 1.0);
  }
  TempFile f("test_metrics_pp.prom");
  ASSERT_TRUE(obs::write_prometheus(reg, f.path));
  const std::string body = slurp(f.path);
  EXPECT_NE(body.find("ca_pp_bubble_fraction{rank=\"0\"}"), std::string::npos);
  EXPECT_NE(body.find("ca_pp_fwd_wait_s_count"), std::string::npos);
}

TEST(MetricsPipeline, EnablingMetricsNeverChangesPipelineClocks) {
  auto wall = [](bool metrics_on) {
    core::Config cfg;
    cfg.pipeline_parallel_size = 2;
    cfg.pp_schedule = "zero_bubble";
    World w(cfg);
    if (metrics_on) w.cluster.enable_metrics();
    const int micros = 4;
    std::vector<t::Tensor> inputs;
    for (int m = 0; m < micros; ++m)
      inputs.push_back(
          t::randn(t::Shape{2, 4}, 300 + static_cast<std::uint64_t>(m)));
    const std::vector<std::int64_t> labels{0, 1};
    w.cluster.run([&](int g) {
      if (g == 0) {
        nn::Linear stage("s1", 4, 6, 11);
        pp::Pipeline pipe(w.env(0), stage, t::Shape{2, 4});
        pipe.train_step(micros, inputs, {});
      } else {
        nn::Linear stage("s2", 6, 2, 12);
        pp::Pipeline pipe(w.env(1), stage, t::Shape{2, 6});
        pipe.train_step(micros, {},
                        [&](const t::Tensor& y, t::Tensor& dy, int) {
                          t::Tensor dl;
                          const float loss = t::cross_entropy(y, labels, dl);
                          t::scale_(dl, 1.0f / static_cast<float>(micros));
                          dy = dl;
                          return loss;
                        });
      }
    });
    return w.cluster.max_clock();
  };
  const double off = wall(false);
  const double on = wall(true);
  EXPECT_EQ(off, on);  // bit-identical: observation must not perturb the sim
  EXPECT_GT(on, 0.0);
}

TEST(MetricsFault, TransientCommRetriesAreCounted) {
  sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
  sim::FaultPlan plan;
  plan.transient_comm(0.0, 0.4);  // retry_base 0.25: succeeds on attempt 3
  cluster.install_faults(plan);
  col::Backend backend(cluster);
  auto& reg = cluster.enable_metrics();
  cluster.run([&](int g) {
    std::vector<float> buf(256, 1.0f);
    backend.world().all_reduce(g, buf);
  });
  const auto counters = reg.merged_counters();
  EXPECT_GE(counters.at("fault.retries"), 2);  // two backoffs per rank
  const auto hists = reg.merged_hists();
  EXPECT_GE(hists.at("fault.retry_backoff_s").count(), 2);
  EXPECT_GE(hists.at("fault.retry_backoff_s").max(), 0.5);
}

TEST(MetricsFault, NanSkipsAreCounted) {
  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  sim::FaultPlan plan;
  plan.corrupt_grads(1, 1);  // rank 1 poisons its gradient at step 1
  w.cluster.install_faults(plan);
  auto& reg = w.cluster.enable_metrics();
  run_dp_training(w, 3);
  // consensus skip: EVERY rank counts the skipped step
  EXPECT_EQ(reg.merged_counters().at("engine.nan_skips"), 2);
  EXPECT_EQ(reg.merged_counters().at("engine.steps"), 6);
}

// ---- calibration ------------------------------------------------------------

TEST(MetricsCalibration, CleanRunModelErrorIsZeroAndFitIsReported) {
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  col::Backend backend(cluster);
  backend.set_forced_algo(col::Algo::kRing);
  auto& reg = cluster.enable_metrics();
  cluster.run([&](int g) {
    for (std::int64_t bytes = 256 << 10; bytes <= (8 << 20); bytes *= 2) {
      backend.world().account_all_reduce(g, bytes);
    }
  });
  const auto rows = obs::calibrate(reg);
  ASSERT_EQ(rows.size(), 1u);
  const auto& row = rows[0];
  EXPECT_EQ(row.group, "world");
  EXPECT_EQ(row.op, "all_reduce");
  EXPECT_EQ(row.algo, "ring");
  EXPECT_EQ(row.points, 6);
  EXPECT_EQ(row.min_bytes, 256 << 10);
  EXPECT_EQ(row.max_bytes, 8 << 20);
  // measured == predicted on a clean run, at every size
  EXPECT_DOUBLE_EQ(row.max_rel_err_model, 0.0);
  EXPECT_DOUBLE_EQ(row.max_rel_err_model_1mib, 0.0);
  // the fitted line has positive latency and inverse-bandwidth terms
  EXPECT_GT(row.beta_s_per_b, 0.0);
  EXPECT_GE(row.max_rel_err_fit, 0.0);
}

TEST(MetricsCalibration, LinkFaultSurfacesAsModelError) {
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  sim::FaultPlan plan;
  plan.degrade_links(0.0, 1e9, 4.0);
  cluster.install_faults(plan);
  col::Backend backend(cluster);
  backend.set_forced_algo(col::Algo::kChunked);
  auto& reg = cluster.enable_metrics();
  cluster.run([&](int g) {
    backend.world().account_all_reduce(g, 4 << 20);
  });
  const auto rows = obs::calibrate(reg);
  ASSERT_EQ(rows.size(), 1u);
  // measured ~4x predicted => rel err ~3; well above any numeric noise
  EXPECT_GT(rows[0].max_rel_err_model_1mib, 1.0);
}

// ---- straggler detection ----------------------------------------------------

TEST(MetricsStraggler, SeededStragglerIsFlaggedOnEveryStep) {
  core::Config cfg;
  cfg.data_parallel_size = 4;
  World w(cfg);
  sim::FaultPlan plan;
  plan.straggler(/*rank=*/2, /*from=*/0.0, /*duration=*/1e9, /*factor=*/4.0);
  w.cluster.install_faults(plan);
  auto& reg = w.cluster.enable_metrics();
  const int steps = 4;
  run_dp_training(w, steps);

  const auto events = obs::detect_stragglers(reg, "engine.compute_s");
  ASSERT_EQ(events.size(), static_cast<std::size_t>(steps));
  for (const auto& e : events) {
    EXPECT_EQ(e.rank, 2);
    EXPECT_GT(e.z, 4.0);
    EXPECT_GT(e.value, e.peer_mean * 3.0);
  }
  // the flagged rank's peers absorb the skew as sync wait, not compute
  for (const auto& e : obs::detect_stragglers(reg, "engine.sync_wait_s")) {
    EXPECT_NE(e.rank, 2);
  }
}

TEST(MetricsStraggler, CleanRunRaisesNoAlarms) {
  core::Config cfg;
  cfg.data_parallel_size = 4;
  World w(cfg);
  auto& reg = w.cluster.enable_metrics();
  run_dp_training(w, 4);
  EXPECT_TRUE(obs::detect_stragglers(reg, "engine.compute_s").empty());
  EXPECT_TRUE(obs::detect_stragglers(reg, "engine.sync_wait_s").empty());
}

TEST(MetricsStraggler, NeedsThreePeersAndHonorsZThreshold) {
  obs::MetricsRegistry reg(2);
  reg.rank(0).record_series("s", 0, 1.0);
  reg.rank(1).record_series("s", 0, 100.0);
  // two ranks: no peer population to compare against => no verdict
  EXPECT_TRUE(obs::detect_stragglers(reg, "s").empty());

  obs::MetricsRegistry reg4(4);
  for (int r = 0; r < 4; ++r) {
    reg4.rank(r).record_series("s", 0, r == 3 ? 2.0 : 1.0);
  }
  // leave-one-out: peers are exactly 1.0, sd floors at 5% of the mean,
  // z = (2-1)/0.05 = 20
  auto events = obs::detect_stragglers(reg4, "s");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_NEAR(events[0].z, 20.0, 1e-6);
  // a laxer threshold config suppresses it
  obs::StragglerConfig lax;
  lax.z_threshold = 30.0;
  EXPECT_TRUE(obs::detect_stragglers(reg4, "s", lax).empty());
}

// ---- 512-rank scale (tasks backend; excluded from TSan lanes) ---------------

TEST(MetricsScale, CleanRun512RanksNoFalseAlarms) {
  sim::Cluster cluster(sim::Topology::uniform(512, 100e9));
  cluster.set_backend(sim::SimBackend::kTasks);
  col::Backend backend(cluster);
  auto& reg = cluster.enable_metrics();
  const int steps = 3;
  cluster.run([&](int g) {
    for (int s = 0; s < steps; ++s) {
      const double t0 = cluster.device(g).clock();
      cluster.device(g).compute_fp32(1e9, "work");
      cluster.device(g).metrics()->record_series(
          "engine.compute_s", s, cluster.device(g).clock() - t0);
      std::vector<float> buf(1024, 1.0f);
      backend.world().all_reduce(g, buf);
    }
  });
  EXPECT_TRUE(obs::detect_stragglers(reg, "engine.compute_s").empty());
  const auto comm = reg.merged_comm();
  ASSERT_EQ(comm.size(), 1u);
  EXPECT_EQ(comm.begin()->second.count, 512 * steps);
  EXPECT_EQ(reg.merged_counters().at("comm.bytes"),
            std::int64_t{512} * steps * 1024 * 4);
}

TEST(MetricsScale, SeededStragglerIsCaughtAt512Ranks) {
  sim::Cluster cluster(sim::Topology::uniform(512, 100e9));
  cluster.set_backend(sim::SimBackend::kTasks);
  sim::FaultPlan plan;
  plan.straggler(/*rank=*/137, 0.0, 1e9, /*factor=*/8.0);
  cluster.install_faults(plan);
  auto& reg = cluster.enable_metrics();
  const int steps = 3;
  cluster.run([&](int g) {
    for (int s = 0; s < steps; ++s) {
      const double t0 = cluster.device(g).clock();
      cluster.device(g).compute_fp32(1e9, "work");
      cluster.device(g).metrics()->record_series(
          "engine.compute_s", s, cluster.device(g).clock() - t0);
    }
  });
  const auto events = obs::detect_stragglers(reg, "engine.compute_s");
  ASSERT_EQ(events.size(), static_cast<std::size_t>(steps));
  for (const auto& e : events) EXPECT_EQ(e.rank, 137);
}

// ---- knobs: env > config, throw-on-garbage ----------------------------------

TEST(MetricsKnobs, EnvEnablesAndGarbageThrows) {
  {
    ScopedEnv on("CA_METRICS", "on");
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    ASSERT_NE(cluster.metrics(), nullptr);
    EXPECT_NE(cluster.device(0).metrics(), nullptr);
  }
  {
    ScopedEnv off("CA_METRICS", "off");
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    EXPECT_EQ(cluster.metrics(), nullptr);
  }
  {
    ScopedEnv bad("CA_METRICS", "yes");
    EXPECT_THROW(sim::Cluster(sim::Topology::uniform(2, 100e9)),
                 std::invalid_argument);
  }
}

TEST(MetricsKnobs, HistBucketsEnvParsesAndRejectsGarbage) {
  {
    ScopedEnv on("CA_METRICS", "on");
    ScopedEnv buckets("CA_METRICS_HIST_BUCKETS", "16");
    sim::Cluster cluster(sim::Topology::uniform(1, 100e9));
    ASSERT_NE(cluster.metrics(), nullptr);
    EXPECT_EQ(cluster.metrics()->hist_buckets(), 16);
    cluster.run([&](int g) { cluster.device(g).metrics()->hist("h").record(1.0); });
    EXPECT_EQ(cluster.metrics()->rank(0).hists().at("h").buckets().size(), 16u);
  }
  for (const char* bad : {"abc", "12abc", "0", "-3", "99999"}) {
    ScopedEnv g("CA_METRICS_HIST_BUCKETS", bad);
    EXPECT_THROW(sim::Cluster(sim::Topology::uniform(1, 100e9)),
                 std::invalid_argument)
        << "value '" << bad << "' must be rejected";
  }
}

TEST(MetricsKnobs, EnvWinsOverConfig) {
  {
    // config says on, env says off: env wins
    ScopedEnv off("CA_METRICS", "off");
    auto world = core::launch("data=2 metrics=on");
    EXPECT_EQ(world->cluster().metrics(), nullptr);
  }
  {
    // env silent: the config key lands
    auto world = core::launch("data=2 metrics=on metrics.hist_buckets=32");
    ASSERT_NE(world->cluster().metrics(), nullptr);
    EXPECT_EQ(world->cluster().metrics()->hist_buckets(), 32);
  }
  {
    // env bucket override beats the config's
    ScopedEnv buckets("CA_METRICS_HIST_BUCKETS", "8");
    auto world = core::launch("data=2 metrics=on metrics.hist_buckets=32");
    ASSERT_NE(world->cluster().metrics(), nullptr);
    EXPECT_EQ(world->cluster().metrics()->hist_buckets(), 8);
  }
}

TEST(MetricsConfig, ParserAcceptsKeysAndValidateRejectsGarbage) {
  const auto cfg = core::parse_config("metrics=on metrics.hist_buckets=128");
  EXPECT_EQ(cfg.metrics, "on");
  EXPECT_EQ(cfg.metrics_hist_buckets, 128);
  EXPECT_EQ(core::parse_config("metrics.enabled=off").metrics, "off");
  EXPECT_THROW(core::parse_config("metrics=maybe"), std::invalid_argument);
  EXPECT_THROW(core::parse_config("metrics.hist_buckets=abc"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_config("metrics.hist_buckets=-1"),
               std::invalid_argument);
  EXPECT_THROW(core::parse_config("metrics.hist_buckets=9999"),
               std::invalid_argument);
}

// ---- exporters --------------------------------------------------------------

TEST(MetricsExporters, PrometheusDumpCarriesAllFamilies) {
  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  auto& reg = w.cluster.enable_metrics();
  run_dp_training(w, 2);
  w.cluster.run([&](int g) {
    w.cluster.device(g).metrics()->gauge("lr").set(0.1);
  });

  TempFile f("test_metrics_out.prom");
  ASSERT_TRUE(obs::write_prometheus(reg, f.path));
  const std::string body = slurp(f.path);
  EXPECT_NE(body.find("ca_engine_steps_total 4"), std::string::npos);
  EXPECT_NE(body.find("ca_engine_step_s_bucket"), std::string::npos);
  EXPECT_NE(body.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(body.find("ca_engine_step_s_count 4"), std::string::npos);
  EXPECT_NE(body.find("ca_lr{rank=\"0\"}"), std::string::npos);
  EXPECT_NE(body.find("ca_comm_seconds_total{"), std::string::npos);
  EXPECT_NE(body.find("algo="), std::string::npos);
  EXPECT_NE(body.find("bytes_class="), std::string::npos);
}

TEST(MetricsExporters, CalibrationJsonRoundTrips) {
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  col::Backend backend(cluster);
  auto& reg = cluster.enable_metrics();
  cluster.run([&](int g) {
    for (std::int64_t bytes = 1 << 20; bytes <= (4 << 20); bytes *= 2) {
      backend.world().account_all_reduce(g, bytes);
    }
  });
  TempFile f("test_calibration_out.json");
  ASSERT_TRUE(obs::write_calibration_json(obs::calibrate(reg), "uniform4",
                                          f.path));
  const std::string body = slurp(f.path);
  EXPECT_NE(body.find("\"topology\": \"uniform4\""), std::string::npos);
  EXPECT_NE(body.find("\"alpha_s\""), std::string::npos);
  EXPECT_NE(body.find("\"beta_s_per_byte\""), std::string::npos);
  EXPECT_NE(body.find("\"max_rel_err_model\""), std::string::npos);
  EXPECT_EQ(std::count(body.begin(), body.end(), '{'),
            std::count(body.begin(), body.end(), '}'));
}

TEST(MetricsExporters, ChromeTraceFoldsSeriesIntoCounterTracks) {
  core::Config cfg;
  cfg.data_parallel_size = 2;
  World w(cfg);
  w.cluster.enable_tracing();
  auto& reg = w.cluster.enable_metrics();
  run_dp_training(w, 2);

  TempFile f("test_metrics_trace_out.json");
  ASSERT_TRUE(obs::write_chrome_trace(*w.cluster.tracer(), &reg, f.path));
  const std::string body = slurp(f.path);
  EXPECT_NE(body.find("engine.compute_s"), std::string::npos);
  EXPECT_NE(body.find("engine.sync_wait_s"), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_EQ(std::count(body.begin(), body.end(), '{'),
            std::count(body.begin(), body.end(), '}'));

  // the nullptr-metrics overload stays byte-compatible with the old API
  TempFile f2("test_metrics_trace_out2.json");
  ASSERT_TRUE(obs::write_chrome_trace(*w.cluster.tracer(), f2.path));
  EXPECT_EQ(slurp(f2.path).find("engine.compute_s"), std::string::npos);
}
