// Pipeline parallelism tests: the PipeSchedule compiler (task order, cache,
// zero-bubble wgrad deferral), the schedule x backend matrix pinning
// bit-identical losses/gradients against the serial oracle, knob parsing and
// precedence, the time_schedule replay (schedule ranking, bubble closed
// forms, and clocks and residency equal to the executor's), memory
// accounting across schedules, and the bf16 wire byte cut.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "collective/cost.hpp"
#include "nn/layers.hpp"
#include "pp/pipeline.hpp"
#include "pp/schedule.hpp"
#include "scoped_env.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace pp = ca::pp;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;

namespace {

struct PpWorld {
  explicit PpWorld(int stages, std::string pp_schedule = "1f1b")
      : cluster(sim::Topology::uniform(stages, 100e9)),
        backend(cluster),
        ctx(backend, config(stages, std::move(pp_schedule))) {
    // Serial-equivalence tests must stay exact under the CA_COMM_DTYPE=bf16
    // CI sweep; the byte-cut test overrides this pin explicitly.
    ctx.set_comm_dtype(t::Dtype::kF32);
  }

  static core::Config config(int stages, std::string pp_schedule) {
    core::Config cfg;
    cfg.pipeline_parallel_size = stages;
    cfg.pp_schedule = std::move(pp_schedule);
    return cfg;
  }
  tp::Env env(int g) { return tp::Env{&ctx, g}; }

  sim::Cluster cluster;
  col::Backend backend;
  core::ParallelContext ctx;
};

/// Serial reference: the same two linear layers trained on the same
/// micro-batches with gradient accumulation and the same loss scaling.
struct SerialRef {
  nn::Linear l1{"s1", 4, 6, 11};
  nn::Linear l2{"s2", 6, 2, 12};
  std::vector<std::int64_t> labels{0, 1};

  float run(const std::vector<t::Tensor>& micros) {
    float loss_sum = 0.0f;
    for (const auto& x : micros) {
      auto y = l2.forward(l1.forward(x));
      t::Tensor dl;
      loss_sum += t::cross_entropy(y, labels, dl);
      t::scale_(dl, 1.0f / static_cast<float>(micros.size()));
      l1.backward(l2.backward(dl));
    }
    return loss_sum / static_cast<float>(micros.size());
  }
};

std::vector<t::Tensor> make_micros(int count) {
  std::vector<t::Tensor> micros;
  for (int m = 0; m < count; ++m)
    micros.push_back(t::randn(t::Shape{2, 4}, 100 + static_cast<std::uint64_t>(m)));
  return micros;
}

bool bits_equal(const t::Tensor& a, const t::Tensor& b) {
  if (!(a.shape() == b.shape())) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

struct PipeResult {
  float loss = 0.0f;
  t::Tensor g1, g2;  // weight grads of the two stages
  int peak0 = 0, peak1 = 0;
  std::int64_t held0 = 0;
};

PipeResult run_two_stage(pp::Schedule sched, int micros) {
  PpWorld w(2);
  auto inputs = make_micros(micros);
  PipeResult res;
  const std::vector<std::int64_t> labels{0, 1};
  w.cluster.run([&](int g) {
    if (g == 0) {
      nn::Linear stage("s1", 4, 6, 11);
      pp::Pipeline pipe(w.env(0), stage, t::Shape{2, 4}, sched);
      pipe.train_step(micros, inputs, {});
      res.g1 = stage.weight().grad.clone();
      res.peak0 = pipe.peak_in_flight();
      res.held0 = pipe.peak_held_bytes();
    } else {
      nn::Linear stage("s2", 6, 2, 12);
      pp::Pipeline pipe(w.env(1), stage, t::Shape{2, 6}, sched);
      res.loss = pipe.train_step(
          micros, {},
          [&](const t::Tensor& y, t::Tensor& dy, int) {
            t::Tensor dl;
            const float loss = t::cross_entropy(y, labels, dl);
            t::scale_(dl, 1.0f / static_cast<float>(micros));
            dy = dl;
            return loss;
          });
      res.g2 = stage.weight().grad.clone();
      res.peak1 = pipe.peak_in_flight();
    }
  });
  return res;
}

}  // namespace

TEST(Pipeline, FillDrainMatchesSerial) {
  const int micros = 4;
  auto inputs = make_micros(micros);
  SerialRef ref;
  const float ref_loss = ref.run(inputs);

  auto res = run_two_stage(pp::Schedule::kFillDrain, micros);
  EXPECT_EQ(res.loss, ref_loss);
  EXPECT_TRUE(bits_equal(res.g1, ref.l1.weight().grad));
  EXPECT_TRUE(bits_equal(res.g2, ref.l2.weight().grad));
}

TEST(Pipeline, OneFOneBMatchesSerial) {
  const int micros = 4;
  auto inputs = make_micros(micros);
  SerialRef ref;
  const float ref_loss = ref.run(inputs);

  auto res = run_two_stage(pp::Schedule::kOneFOneB, micros);
  EXPECT_EQ(res.loss, ref_loss);
  EXPECT_TRUE(bits_equal(res.g1, ref.l1.weight().grad));
  EXPECT_TRUE(bits_equal(res.g2, ref.l2.weight().grad));
}

TEST(Pipeline, SchedulesProduceIdenticalGradients) {
  // Every schedule accumulates micro-ascending per parameter (the compiler
  // asserts it), so gradients agree bit-for-bit, not just approximately.
  auto a = run_two_stage(pp::Schedule::kFillDrain, 6);
  auto b = run_two_stage(pp::Schedule::kOneFOneB, 6);
  auto z = run_two_stage(pp::Schedule::kZeroBubble, 6);
  EXPECT_TRUE(bits_equal(a.g1, b.g1));
  EXPECT_TRUE(bits_equal(a.g2, b.g2));
  EXPECT_TRUE(bits_equal(a.g1, z.g1));
  EXPECT_TRUE(bits_equal(a.g2, z.g2));
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.loss, z.loss);
}

TEST(Pipeline, OneFOneBHoldsFewerMicrobatches) {
  const int micros = 6;
  auto gpipe = run_two_stage(pp::Schedule::kFillDrain, micros);
  auto f1b1 = run_two_stage(pp::Schedule::kOneFOneB, micros);
  auto zb = run_two_stage(pp::Schedule::kZeroBubble, micros);
  // fill-drain parks every micro-batch on every stage
  EXPECT_EQ(gpipe.peak0, micros);
  EXPECT_EQ(gpipe.peak1, micros);
  // 1F1B keeps at most (stages - rank) in flight
  EXPECT_EQ(f1b1.peak0, 2);
  EXPECT_EQ(f1b1.peak1, 1);
  // zero-bubble runs uncapped and defers wgrad stashes: strictly more
  // resident state than 1F1B — the memory price of the empty drain
  EXPECT_GT(zb.peak0, f1b1.peak0);
  EXPECT_GT(zb.held0, f1b1.held0);
}

TEST(Pipeline, FourStagesRunGreen) {
  const int stages = 4, micros = 8;
  PpWorld w(stages);
  auto inputs = make_micros(micros);
  const std::vector<std::int64_t> labels{0, 1};

  // serial reference: 4 chained linears 4->6->6->6->2
  nn::Linear r0("p0", 4, 6, 50), r1("p1", 6, 6, 51), r2("p2", 6, 6, 52),
      r3("p3", 6, 2, 53);
  float ref_loss = 0.0f;
  for (const auto& x : inputs) {
    auto y = r3.forward(r2.forward(r1.forward(r0.forward(x))));
    t::Tensor dl;
    ref_loss += t::cross_entropy(y, labels, dl);
    t::scale_(dl, 1.0f / micros);
    r0.backward(r1.backward(r2.backward(r3.backward(dl))));
  }
  ref_loss /= micros;

  std::vector<t::Tensor> grads(stages);
  float loss = 0.0f;
  w.cluster.run([&](int g) {
    const std::int64_t in = g == 0 ? 4 : 6;
    const std::int64_t out = g == stages - 1 ? 2 : 6;
    nn::Linear stage("p" + std::to_string(g), in, out,
                     50 + static_cast<std::uint64_t>(g));
    pp::Pipeline pipe(w.env(g), stage, t::Shape{2, in}, pp::Schedule::kOneFOneB);
    const float l = pipe.train_step(
        micros, g == 0 ? std::span<const t::Tensor>(inputs) : std::span<const t::Tensor>{},
        [&](const t::Tensor& y, t::Tensor& dy, int) {
          t::Tensor dl;
          const float lv = t::cross_entropy(y, labels, dl);
          t::scale_(dl, 1.0f / micros);
          dy = dl;
          return lv;
        });
    grads[g] = stage.weight().grad.clone();
    if (g == stages - 1) loss = l;
  });

  EXPECT_EQ(loss, ref_loss);
  EXPECT_TRUE(bits_equal(grads[0], r0.weight().grad));
  EXPECT_TRUE(bits_equal(grads[3], r3.weight().grad));
}

namespace {

/// A stage whose forward/backward charge fixed compute time on the device —
/// makes the pipeline bubble visible on the logical clocks.
class TimedStage : public nn::Module {
 public:
  TimedStage(const tp::Env& env, std::int64_t in, std::int64_t out,
             std::uint64_t seed, double seconds)
      : env_(env), lin_("stage", in, out, seed), seconds_(seconds) {}

  t::Tensor forward(const t::Tensor& x) override {
    env_.dev().advance_clock(seconds_);
    return lin_.forward(x);
  }
  t::Tensor backward(const t::Tensor& dy) override {
    env_.dev().advance_clock(2.0 * seconds_);
    return lin_.backward(dy);
  }
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    lin_.collect_parameters(out);
  }

 private:
  tp::Env env_;
  nn::Linear lin_;
  double seconds_;
};

}  // namespace

TEST(Pipeline, ClockShowsBubble) {
  // with one micro-batch, total time ~ sum of stage times; with many, the
  // steady state amortizes the fill/drain bubble.
  auto run_with = [&](int micros) {
    PpWorld w(2);
    auto inputs = make_micros(micros);
    const std::vector<std::int64_t> labels{0, 1};
    const double sec = 1.0;
    w.cluster.run([&](int g) {
      if (g == 0) {
        TimedStage stage(w.env(0), 4, 6, 11, sec);
        pp::Pipeline pipe(w.env(0), stage, t::Shape{2, 4},
                          pp::Schedule::kOneFOneB);
        pipe.train_step(micros, inputs, {});
      } else {
        TimedStage stage(w.env(1), 6, 2, 12, sec);
        pp::Pipeline pipe(w.env(1), stage, t::Shape{2, 6},
                          pp::Schedule::kOneFOneB);
        pipe.train_step(micros, {}, [&](const t::Tensor& y, t::Tensor& dy, int) {
          t::Tensor dl;
          const float lv = t::cross_entropy(y, labels, dl);
          dy = dl;
          return lv;
        });
      }
    });
    return w.cluster.max_clock() / micros;  // time per micro-batch
  };
  // more micro-batches => lower amortized time per micro-batch
  const double per_micro_8 = run_with(8);
  const double per_micro_1 = run_with(1);
  EXPECT_LT(per_micro_8, 0.8 * per_micro_1);
}

// ---- PipeSchedule: compiler, matrix, knobs, cost model ---------------------------

namespace {

/// Virtual-stage chain oracle and pipeline runner for the schedule matrix.
/// VS = stages * chunks linears, all 4->4 except the last (4->2); virtual
/// stage vs = v * stages + s runs on rank s as its chunk v. Seeds depend on
/// vs only, so every decomposition trains the exact same model.
std::unique_ptr<nn::Linear> make_vs_layer(int vs, int total_vs) {
  return std::make_unique<nn::Linear>(
      "vs" + std::to_string(vs), 4, vs == total_vs - 1 ? 2 : 4,
      300 + static_cast<std::uint64_t>(vs));
}

struct MatrixResult {
  float loss = 0.0f;
  std::vector<t::Tensor> grads;  // per virtual stage, weight grads
};

MatrixResult serial_oracle(int total_vs, int micros) {
  const std::vector<std::int64_t> labels{0, 1};
  auto inputs = make_micros(micros);
  std::vector<std::unique_ptr<nn::Linear>> layers;
  for (int vs = 0; vs < total_vs; ++vs)
    layers.push_back(make_vs_layer(vs, total_vs));
  float loss_sum = 0.0f;
  for (const auto& x : inputs) {
    t::Tensor h = x;
    for (auto& l : layers) h = l->forward(h);
    t::Tensor dl;
    loss_sum += t::cross_entropy(h, labels, dl);
    t::scale_(dl, 1.0f / static_cast<float>(micros));
    t::Tensor g = dl;
    for (auto it = layers.rbegin(); it != layers.rend(); ++it)
      g = (*it)->backward(g);
  }
  MatrixResult res;
  res.loss = loss_sum / static_cast<float>(micros);
  for (auto& l : layers) res.grads.push_back(l->weight().grad.clone());
  return res;
}

MatrixResult run_pipelined(pp::Schedule sched, int stages, int chunks,
                           int micros) {
  const int total_vs = stages * chunks;
  PpWorld w(stages);
  auto inputs = make_micros(micros);
  const std::vector<std::int64_t> labels{0, 1};
  MatrixResult res;
  res.grads.resize(static_cast<std::size_t>(total_vs));
  w.cluster.run([&](int g) {
    std::vector<std::unique_ptr<nn::Linear>> own;
    std::vector<nn::Module*> ptrs;
    std::vector<t::Shape> shapes;
    for (int v = 0; v < chunks; ++v) {
      own.push_back(make_vs_layer(v * stages + g, total_vs));
      ptrs.push_back(own.back().get());
      shapes.push_back(t::Shape{2, 4});
    }
    pp::Pipeline pipe(w.env(g), ptrs, shapes, sched);
    const float l = pipe.train_step(
        micros,
        g == 0 ? std::span<const t::Tensor>(inputs)
               : std::span<const t::Tensor>{},
        [&](const t::Tensor& y, t::Tensor& dy, int) {
          t::Tensor dl;
          const float lv = t::cross_entropy(y, labels, dl);
          t::scale_(dl, 1.0f / static_cast<float>(micros));
          dy = dl;
          return lv;
        });
    for (int v = 0; v < chunks; ++v)
      res.grads[static_cast<std::size_t>(v * stages + g)] =
          own[static_cast<std::size_t>(v)]->weight().grad.clone();
    if (g == stages - 1 && chunks > 0) res.loss = l;
  });
  return res;
}

void expect_matches_oracle(pp::Schedule sched, int stages, int chunks,
                           int micros) {
  SCOPED_TRACE(std::string(pp::pipe_sched_name(sched)) + " S=" +
               std::to_string(stages) + " V=" + std::to_string(chunks) +
               " M=" + std::to_string(micros));
  const auto ref = serial_oracle(stages * chunks, micros);
  const auto got = run_pipelined(sched, stages, chunks, micros);
  EXPECT_EQ(got.loss, ref.loss);
  ASSERT_EQ(got.grads.size(), ref.grads.size());
  for (std::size_t vs = 0; vs < ref.grads.size(); ++vs)
    EXPECT_TRUE(bits_equal(got.grads[vs], ref.grads[vs]))
        << "virtual stage " << vs;
}

void run_schedule_matrix() {
  for (const int stages : {2, 4, 8}) {
    const int micros = stages + 3;  // never divisible by the stage count
    expect_matches_oracle(pp::Schedule::kFillDrain, stages, 1, micros);
    expect_matches_oracle(pp::Schedule::kOneFOneB, stages, 1, micros);
    expect_matches_oracle(pp::Schedule::kInterleaved, stages, 2, micros);
    expect_matches_oracle(pp::Schedule::kZeroBubble, stages, 1, micros);
  }
  // zero-bubble and fill-drain also support virtual stages
  expect_matches_oracle(pp::Schedule::kZeroBubble, 4, 2, 7);
  expect_matches_oracle(pp::Schedule::kFillDrain, 2, 2, 3);
}

}  // namespace

TEST(PipeSchedule, MatrixMatchesSerialOracleThreads) {
  ScopedEnv backend("CA_SIM_BACKEND", "threads");
  run_schedule_matrix();
}

TEST(PipeSchedule, MatrixMatchesSerialOracleTasks) {
  ScopedEnv backend("CA_SIM_BACKEND", "tasks");
  run_schedule_matrix();
}

TEST(PipeSchedule, SingleRankInterleavedMatchesSerial) {
  // S == 1 exercises the local (channel-free) delivery path for every
  // schedule, including multi-chunk wraps.
  expect_matches_oracle(pp::Schedule::kOneFOneB, 1, 1, 3);
  expect_matches_oracle(pp::Schedule::kInterleaved, 1, 3, 4);
  expect_matches_oracle(pp::Schedule::kZeroBubble, 1, 2, 3);
}

TEST(PipeSchedule, CompilesClassicOneFOneBOrder) {
  auto sp = pp::compile_schedule(pp::Schedule::kOneFOneB, 2, 4, 1);
  // rank 0 must reproduce the classic hand-rolled order:
  // F0 F1 B0 F2 B1 F3 B2 B3 (warmup = stages - rank - 1 = 1)
  std::string order;
  for (const auto& tk : sp->ranks[0].tasks) {
    if (tk.kind == pp::TaskKind::kFwd)
      order += "F" + std::to_string(tk.micro);
    if (tk.kind == pp::TaskKind::kBwdInput)
      order += "B" + std::to_string(tk.micro);
  }
  EXPECT_EQ(order, "F0F1B0F2B1F3B2B3");
  // compilation is cached per (schedule, stages, micros, chunks)
  EXPECT_EQ(sp.get(),
            pp::compile_schedule(pp::Schedule::kOneFOneB, 2, 4, 1).get());
  EXPECT_NE(sp.get(),
            pp::compile_schedule(pp::Schedule::kOneFOneB, 2, 5, 1).get());
}

TEST(PipeSchedule, ZeroBubbleDefersWgradIntoDrain) {
  const auto zb = pp::compile_schedule(pp::Schedule::kZeroBubble, 4, 8, 1);
  const auto f1b = pp::compile_schedule(pp::Schedule::kOneFOneB, 4, 8, 1);
  // every micro owes exactly one standalone wgrad task per rank, and on the
  // early ranks some of them land after the last dgrad — inside what would
  // otherwise be the drain bubble
  const auto& tasks = zb->ranks[0].tasks;
  int wgrads = 0;
  std::size_t last_dgrad = 0, last_wgrad = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].kind == pp::TaskKind::kBwdWeight) {
      ++wgrads;
      last_wgrad = i;
    }
    if (tasks[i].kind == pp::TaskKind::kBwdInput) last_dgrad = i;
  }
  EXPECT_EQ(wgrads, 8);
  EXPECT_GT(last_wgrad, last_dgrad);
  // deferred wgrad shortens the replayed unit-cost step
  const pp::StageSeconds unit{1.0, 1.0, 1.0, 0.0, 0.0};
  EXPECT_LT(pp::time_schedule(*zb, unit).step_s,
            pp::time_schedule(*f1b, unit).step_s);
  // both carry the same logical work per rank
  EXPECT_EQ(zb->stages, 4);
  EXPECT_EQ(zb->micros, 8);
}

TEST(PipeSchedule, KnobParsingAndPrecedence) {
  using S = pp::Schedule;
  EXPECT_EQ(pp::Pipeline::parse_schedule("fill_drain"), S::kFillDrain);
  EXPECT_EQ(pp::Pipeline::parse_schedule("gpipe"), S::kFillDrain);
  EXPECT_EQ(pp::Pipeline::parse_schedule("1f1b"), S::kOneFOneB);
  EXPECT_EQ(pp::Pipeline::parse_schedule("interleaved"), S::kInterleaved);
  EXPECT_EQ(pp::Pipeline::parse_schedule("zero_bubble"), S::kZeroBubble);
  EXPECT_EQ(pp::Pipeline::parse_schedule("zb"), S::kZeroBubble);
  EXPECT_THROW(pp::Pipeline::parse_schedule("bogus"), std::invalid_argument);
  EXPECT_THROW(pp::Pipeline::parse_schedule(""), std::invalid_argument);

  {  // config tier: pp.schedule decides when the env var is unset
    ScopedEnv env("CA_PP_SCHEDULE", nullptr);
    PpWorld w(2, "zero_bubble");
    EXPECT_EQ(pp::Pipeline::resolved_schedule(w.ctx), S::kZeroBubble);
  }
  {  // env tier wins over config
    ScopedEnv env("CA_PP_SCHEDULE", "fill_drain");
    PpWorld w(2, "zero_bubble");
    EXPECT_EQ(pp::Pipeline::resolved_schedule(w.ctx), S::kFillDrain);
  }
  {  // garbage env value throws instead of silently falling back
    ScopedEnv env("CA_PP_SCHEDULE", "garbage");
    PpWorld w(2);
    EXPECT_THROW(pp::Pipeline::resolved_schedule(w.ctx),
                 std::invalid_argument);
  }
  {  // garbage config value is rejected by Config::validate
    core::Config cfg;
    cfg.pp_schedule = "bogus";
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {  // the schedule-less Pipeline constructor resolves through the knob
    ScopedEnv env("CA_PP_SCHEDULE", "interleaved");
    PpWorld w(1);
    w.cluster.run([&](int g) {
      nn::Linear stage("k", 4, 2, 7);
      pp::Pipeline pipe(w.env(g), stage, t::Shape{2, 4});
      EXPECT_EQ(pipe.schedule(), S::kInterleaved);
    });
  }
}

TEST(PipeSchedule, RejectsIndicesBeyondInt16) {
  // PipeTask::micro / chunk are int16: larger sizes would silently wrap
  EXPECT_THROW(pp::compile_schedule(pp::Schedule::kOneFOneB, 2, 32768, 1),
               std::invalid_argument);
  EXPECT_THROW(pp::compile_schedule(pp::Schedule::kInterleaved, 2, 4, 32768),
               std::invalid_argument);
  EXPECT_THROW(pp::compile_schedule(pp::Schedule::kOneFOneB, 2, 0, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(pp::compile_schedule(pp::Schedule::kOneFOneB, 2, 4, 1));
}

namespace {

pp::PipeTiming unit_timing(pp::Schedule sched, int stages, int micros,
                           int chunks = 1) {
  const double c = 1.0 / chunks;  // a stage's unit work split over chunks
  return pp::time_schedule(
      *pp::compile_schedule(sched, stages, micros, chunks),
      pp::StageSeconds{c, c, c, 0.0, 0.0});
}

}  // namespace

TEST(PipeSchedule, ReplayRanksSchedules) {
  using S = pp::Schedule;
  const auto fill = unit_timing(S::kFillDrain, 4, 8);
  const auto f1b = unit_timing(S::kOneFOneB, 4, 8);
  const auto zb = unit_timing(S::kZeroBubble, 4, 8);
  // 1F1B pays a fill of S-1 forwards and a drain of S-1 dgrads: the
  // recompute runs ahead of the dy wait and dx leaves before the wgrad
  const double busy = 8 * 4.0;  // M * (fwd + recompute + dgrad + wgrad)
  EXPECT_DOUBLE_EQ(f1b.step_s, busy + 3 * (1.0 + 1.0));
  EXPECT_DOUBLE_EQ(f1b.bubble_fraction, 1.0 - busy / f1b.step_s);
  // fill-drain and 1F1B share the bubble; they differ in residency only
  EXPECT_DOUBLE_EQ(fill.step_s, f1b.step_s);
  EXPECT_DOUBLE_EQ(fill.bubble_fraction, f1b.bubble_fraction);
  EXPECT_EQ(fill.peak_micros, 8);
  EXPECT_EQ(f1b.peak_micros, 4);
  // deferred wgrads fill the drain, at the price of more resident micros
  EXPECT_LT(zb.bubble_fraction, f1b.bubble_fraction);
  EXPECT_GT(zb.peak_micros, f1b.peak_micros);
  // interleaving at V = 1 is plain 1F1B; 2 chunks cut the fill/drain share
  EXPECT_EQ(unit_timing(S::kInterleaved, 4, 8, 1).step_s, f1b.step_s);
  EXPECT_LT(unit_timing(S::kInterleaved, 4, 8, 2).bubble_fraction,
            f1b.bubble_fraction);
}

TEST(Bubble, MatchesClosedForm) {
  using S = pp::Schedule;
  // 1F1B and fill-drain run M * (2f + b + w) of work per rank plus a fill of
  // S-1 forwards and a drain of S-1 dgrads
  for (const pp::StageSeconds c : {pp::StageSeconds{1.0, 1.0, 1.0, 0.0, 0.0},
                                   pp::StageSeconds{1.0, 2.0, 3.0, 0.0, 0.0},
                                   pp::StageSeconds{0.5, 3.0, 1.0, 0.0, 0.0}}) {
    for (const auto& [stages, micros] :
         {std::pair{2, 4}, std::pair{4, 8}, std::pair{8, 64}}) {
      const double work = micros * (2 * c.fwd_s + c.bwd_input_s +
                                    c.bwd_weight_s);
      const double edge = (stages - 1) * (c.fwd_s + c.bwd_input_s);
      for (const S sched : {S::kOneFOneB, S::kFillDrain}) {
        const auto t = pp::time_schedule(
            *pp::compile_schedule(sched, stages, micros, 1), c);
        EXPECT_DOUBLE_EQ(t.step_s, work + edge);
        EXPECT_NEAR(t.bubble_fraction, edge / (work + edge), 1e-12);
      }
    }
  }
  // with the forward and wgrad free it is the classic (S-1)/(M+S-1)
  const auto dgrad_only = pp::time_schedule(
      *pp::compile_schedule(S::kOneFOneB, 4, 4, 1),
      pp::StageSeconds{0.0, 1.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(dgrad_only.bubble_fraction, 3.0 / 7.0, 1e-12);
  EXPECT_EQ(unit_timing(S::kOneFOneB, 1, 8).bubble_fraction, 0.0);
  EXPECT_LT(unit_timing(S::kOneFOneB, 4, 64).bubble_fraction,
            unit_timing(S::kOneFOneB, 4, 8).bubble_fraction);
}

TEST(InterleavedBubble, ShrinksWithChunks) {
  using S = pp::Schedule;
  EXPECT_EQ(unit_timing(S::kInterleaved, 4, 8, 1).bubble_fraction,
            unit_timing(S::kOneFOneB, 4, 8).bubble_fraction);
  double prev = 1.0;
  for (const int v : {1, 2, 4, 7}) {
    const double b = unit_timing(S::kInterleaved, 8, 8, v).bubble_fraction;
    EXPECT_LT(b, prev) << "V=" << v;
    prev = b;
  }
  // at M = S the fill and drain shrink to (S-1)(f+b)/V against the
  // M * (2f + b + w) of work: 2 / (32 + 2) at S = 8, V = 7
  EXPECT_NEAR(unit_timing(S::kInterleaved, 8, 8, 7).bubble_fraction,
              1.0 / 17.0, 1e-12);
}

TEST(PipeSchedule, ReplayThrowsOnDeadlock) {
  // rank 0 waits for a dy that rank 1 only sends after an activation rank 0
  // never sends
  pp::PipeSchedule bad;
  bad.stages = 2;
  bad.ranks.resize(2);
  bad.ranks[0].tasks = {{pp::TaskKind::kBwdInput, 0, 0}};
  bad.ranks[0].in_bwd = {{0, 0}};
  bad.ranks[1].tasks = {{pp::TaskKind::kFwd, 0, 0},
                        {pp::TaskKind::kSendBwd, 0, 0}};
  bad.ranks[1].in_fwd = {{0, 0}};
  EXPECT_THROW(pp::time_schedule(bad, pp::StageSeconds{}), std::logic_error);
}

namespace {

/// A virtual-stage linear that charges fixed seconds per task, with the
/// dgrad/wgrad split, so the executor's clocks run on the replay's inputs.
class SecondsStage : public nn::Module {
 public:
  SecondsStage(const tp::Env& env, std::unique_ptr<nn::Linear> lin,
               const pp::StageSeconds& secs)
      : env_(env), lin_(std::move(lin)), secs_(secs) {}

  t::Tensor forward(const t::Tensor& x) override {
    env_.dev().advance_clock(secs_.fwd_s);
    return lin_->forward(x);
  }
  t::Tensor backward(const t::Tensor& dy) override {
    auto dx = backward_input(dy);
    backward_weight();
    return dx;
  }
  bool has_split_backward() const override { return true; }
  t::Tensor backward_input(const t::Tensor& dy) override {
    env_.dev().advance_clock(secs_.bwd_input_s);
    return lin_->backward_input(dy);
  }
  void backward_weight() override {
    env_.dev().advance_clock(secs_.bwd_weight_s);
    lin_->backward_weight();
  }
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    lin_->collect_parameters(out);
  }

 private:
  tp::Env env_;
  std::unique_ptr<nn::Linear> lin_;
  pp::StageSeconds secs_;
};

/// Execute one step of `sched` and check time_schedule's step and residency
/// against the executed clocks and peak_in_flight().
void expect_timing_matches(pp::Schedule sched, int stages, int chunks,
                           int micros) {
  SCOPED_TRACE(std::string(pp::pipe_sched_name(sched)) + " S=" +
               std::to_string(stages) + " V=" + std::to_string(chunks) +
               " M=" + std::to_string(micros));
  PpWorld w(stages);  // fp32 wire: 8 floats per {2, 4} message
  pp::StageSeconds secs{3e-4, 5e-4, 2e-4, 0.0, 0.0};
  secs.send_s = w.cluster.topology().latency();
  secs.hop_s = col::p2p_time(w.cluster.topology(), 0, 1, 8 * 4);
  const int total_vs = stages * chunks;
  auto inputs = make_micros(micros);
  const std::vector<std::int64_t> labels{0, 1};
  std::vector<int> peaks(static_cast<std::size_t>(stages), 0);
  w.cluster.run([&](int g) {
    std::vector<std::unique_ptr<SecondsStage>> own;
    std::vector<nn::Module*> ptrs;
    std::vector<t::Shape> shapes;
    for (int v = 0; v < chunks; ++v) {
      own.push_back(std::make_unique<SecondsStage>(
          w.env(g), make_vs_layer(v * stages + g, total_vs), secs));
      ptrs.push_back(own.back().get());
      shapes.push_back(t::Shape{2, 4});
    }
    pp::Pipeline pipe(w.env(g), ptrs, shapes, sched);
    pipe.train_step(micros,
                    g == 0 ? std::span<const t::Tensor>(inputs)
                           : std::span<const t::Tensor>{},
                    [&](const t::Tensor& y, t::Tensor& dy, int) {
                      return t::cross_entropy(y, labels, dy);
                    });
    peaks[static_cast<std::size_t>(g)] = pipe.peak_in_flight();
  });
  const auto timing = pp::time_schedule(
      *pp::compile_schedule(sched, stages, micros, chunks), secs);
  EXPECT_EQ(timing.step_s, w.cluster.max_clock());
  EXPECT_EQ(timing.peak_micros, *std::max_element(peaks.begin(), peaks.end()));
}

void run_timing_matrix() {
  using S = pp::Schedule;
  for (const int stages : {2, 4}) {
    for (const int micros : {4, 8}) {
      for (const int chunks : {1, 2}) {
        for (const S sched :
             {S::kFillDrain, S::kOneFOneB, S::kInterleaved, S::kZeroBubble}) {
          if (sched == S::kInterleaved && chunks == 1) continue;
          expect_timing_matches(sched, stages, chunks, micros);
        }
      }
    }
  }
}

}  // namespace

TEST(PipeSchedule, TimingMatchesExecutor) {
  for (const char* backend : {"threads", "tasks"}) {
    SCOPED_TRACE(backend);
    ScopedEnv env("CA_SIM_BACKEND", backend);
    run_timing_matrix();
  }
}

TEST(PipeSchedule, Bf16WireHalvesPipelineBytes) {
  auto bytes_with = [&](t::Dtype wire) {
    PpWorld w(2);
    w.ctx.set_comm_dtype(wire);
    auto inputs = make_micros(4);
    const std::vector<std::int64_t> labels{0, 1};
    w.cluster.run([&](int g) {
      if (g == 0) {
        nn::Linear stage("s1", 4, 6, 11);
        pp::Pipeline pipe(w.env(0), stage, t::Shape{2, 4},
                          pp::Schedule::kOneFOneB);
        pipe.train_step(4, inputs, {});
      } else {
        nn::Linear stage("s2", 6, 2, 12);
        pp::Pipeline pipe(w.env(1), stage, t::Shape{2, 6},
                          pp::Schedule::kOneFOneB);
        pipe.train_step(4, {}, [&](const t::Tensor& y, t::Tensor& dy, int) {
          t::Tensor dl;
          const float lv = t::cross_entropy(y, labels, dl);
          t::scale_(dl, 0.25f);
          dy = dl;
          return lv;
        });
      }
    });
    return w.cluster.total_bytes_sent();
  };
  const auto full = bytes_with(t::Dtype::kF32);
  const auto half = bytes_with(t::Dtype::kBF16);
  ASSERT_GT(full, 0);
  // all traffic in this run is pipeline p2p, so the cut is exactly 2x
  EXPECT_EQ(half * 2, full);
}

// ---- interleaved (virtual-stage) pipelines against serial chains ------------------

TEST(Pipeline, VirtualStagesMatchSerialChain) {
  // 2 ranks x 2 chunks = 4 virtual stages: rank0 holds L0,L2; rank1 L1,L3.
  const int stages = 2, micros = 3;
  PpWorld w(stages);
  const std::vector<std::int64_t> labels{0, 1};

  auto inputs = make_micros(micros);

  // serial: L0 -> L1 -> L2 -> L3
  nn::Linear r0("c0", 4, 6, 90), r1("c1", 6, 6, 91), r2("c2", 6, 6, 92),
      r3("c3", 6, 2, 93);
  float ref_loss = 0.0f;
  for (const auto& x : inputs) {
    auto y = r3.forward(r2.forward(r1.forward(r0.forward(x))));
    t::Tensor dl;
    ref_loss += t::cross_entropy(y, labels, dl);
    t::scale_(dl, 1.0f / micros);
    r0.backward(r1.backward(r2.backward(r3.backward(dl))));
  }
  ref_loss /= micros;

  std::vector<t::Tensor> g0(2), g1(2);  // per-rank chunk grads
  float loss = 0.0f;
  w.cluster.run([&](int g) {
    // rank 0: virtual stages 0 and 2 (L0, L2); rank 1: 1 and 3 (L1, L3)
    nn::Linear a(g == 0 ? "c0" : "c1", g == 0 ? 4 : 6, 6,
                 90 + static_cast<std::uint64_t>(g));
    nn::Linear b(g == 0 ? "c2" : "c3", 6, g == 0 ? 6 : 2,
                 92 + static_cast<std::uint64_t>(g));
    pp::Pipeline pipe(w.env(g), {&a, &b},
                      {t::Shape{2, g == 0 ? 4 : 6}, t::Shape{2, 6}},
                      pp::Schedule::kInterleaved);
    const float l = pipe.train_step(
        micros, g == 0 ? std::span<const t::Tensor>(inputs)
                       : std::span<const t::Tensor>{},
        [&](const t::Tensor& y, t::Tensor& dy, int) {
          t::Tensor dl;
          const float lv = t::cross_entropy(y, labels, dl);
          t::scale_(dl, 1.0f / micros);
          dy = dl;
          return lv;
        });
    g0[static_cast<std::size_t>(g)] = a.weight().grad.clone();
    g1[static_cast<std::size_t>(g)] = b.weight().grad.clone();
    if (g == 1) loss = l;
  });

  EXPECT_EQ(loss, ref_loss);
  EXPECT_TRUE(bits_equal(g0[0], r0.weight().grad));  // L0 on rank 0
  EXPECT_TRUE(bits_equal(g0[1], r1.weight().grad));  // L1 on rank 1
  EXPECT_TRUE(bits_equal(g1[0], r2.weight().grad));  // L2 on rank 0
  EXPECT_TRUE(bits_equal(g1[1], r3.weight().grad));  // L3 on rank 1
}

TEST(Pipeline, ThreeStagesTwoChunks) {
  const int stages = 3, micros = 4;
  PpWorld w(stages);
  auto inputs = make_micros(micros);
  const std::vector<std::int64_t> labels{0, 1};

  // 6 virtual stages, all 4->4 except the last 4->2
  std::vector<std::unique_ptr<nn::Linear>> serial;
  for (int v = 0; v < 6; ++v)
    serial.push_back(std::make_unique<nn::Linear>(
        "v" + std::to_string(v), v == 0 ? 4 : 4, v == 5 ? 2 : 4,
        200 + static_cast<std::uint64_t>(v)));
  float ref_loss = 0.0f;
  for (const auto& x : inputs) {
    t::Tensor h = x;
    for (auto& l : serial) h = l->forward(h);
    t::Tensor dl;
    ref_loss += t::cross_entropy(h, labels, dl);
    t::scale_(dl, 1.0f / micros);
    t::Tensor gg = dl;
    for (auto it = serial.rbegin(); it != serial.rend(); ++it)
      gg = (*it)->backward(gg);
  }
  ref_loss /= micros;

  float loss = 0.0f;
  std::vector<t::Tensor> grads(6);
  w.cluster.run([&](int g) {
    // rank s holds virtual stages s and 3+s
    nn::Linear a("va", 4, 4, 200 + static_cast<std::uint64_t>(g));
    nn::Linear b("vb", 4, g == 2 ? 2 : 4, 203 + static_cast<std::uint64_t>(g));
    pp::Pipeline pipe(w.env(g), {&a, &b}, {t::Shape{2, 4}, t::Shape{2, 4}},
                      pp::Schedule::kInterleaved);
    const float l = pipe.train_step(
        micros, g == 0 ? std::span<const t::Tensor>(inputs)
                       : std::span<const t::Tensor>{},
        [&](const t::Tensor& y, t::Tensor& dy, int) {
          t::Tensor dl;
          const float lv = t::cross_entropy(y, labels, dl);
          t::scale_(dl, 1.0f / micros);
          dy = dl;
          return lv;
        });
    grads[static_cast<std::size_t>(g)] = a.weight().grad.clone();
    grads[static_cast<std::size_t>(3 + g)] = b.weight().grad.clone();
    if (g == 2) loss = l;
  });
  EXPECT_EQ(loss, ref_loss);
  for (int v = 0; v < 6; ++v)
    EXPECT_TRUE(bits_equal(grads[static_cast<std::size_t>(v)],
                           serial[static_cast<std::size_t>(v)]->weight().grad))
        << "virtual stage " << v;
}
