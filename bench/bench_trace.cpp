// Timeline tracer end-to-end: trace a bucketed data-parallel GPT-ish engine
// step and a 1F1B pipeline step at world 4, export Chrome traces + summary
// JSONs, and assert the two headline metrics read off the spans — bucketed DP
// comm overlaps compute (overlap fraction > 0) and the pipeline shows a
// bubble. Also checks that tracing does not perturb the simulated clocks, and
// that pp::time_schedule predicts the executed 1F1B step exactly.
// Writes trace_dp.json / trace_pp.json (open at ui.perfetto.dev),
// trace_dp_summary.json / trace_pp_summary.json, and BENCH_trace.json.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "collective/cost.hpp"
#include "engine/engine.hpp"
#include "nn/layers.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/report.hpp"
#include "optim/optimizer.hpp"
#include "pp/pipeline.hpp"
#include "pp/schedule.hpp"
#include "tensor/ops.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace obs = ca::obs;
namespace engine = ca::engine;
namespace pp = ca::pp;

namespace {

constexpr int kWorld = 4;
constexpr int kBlocks = 24;
constexpr std::int64_t kHidden = 16;
constexpr std::int64_t kBatch = 1, kSeq = 2;
constexpr int kSteps = 3;
constexpr int kMicros = 8;  // pipeline micro-batches per step
// Modeled FLOPs per block forward: ~8 us of fp16 on the A100 model, so the
// backward sweep is long enough for issued bucket reduces to hide under it.
constexpr double kBlockFlops = 2e9;

/// A transformer block that also charges its modeled FLOPs to the simulated
/// device — the functional nn:: layers are host math with no device-time
/// model, so without this the trace's compute lane would be empty.
class CostedBlock : public nn::Module {
 public:
  CostedBlock(ca::tp::Env env, int index)
      : env_(env),
        inner_("blk" + std::to_string(index), kHidden, /*heads=*/2,
               /*ffn=*/64, 1000u + static_cast<unsigned>(index)) {}

  t::Tensor forward(const t::Tensor& x) override {
    env_.dev().compute_fp16(kBlockFlops, "block.fwd");
    return inner_.forward(x);
  }
  t::Tensor backward(const t::Tensor& dy) override {
    env_.dev().compute_fp16(2.0 * kBlockFlops, "block.bwd");
    return inner_.backward(dy);
  }
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    inner_.collect_parameters(out);
  }

 private:
  ca::tp::Env env_;
  nn::TransformerBlock inner_;
};

/// One pipeline stage (a linear layer) with a modeled compute cost. Supports
/// the dgrad/wgrad split so the zero-bubble schedule can defer the weight
/// leg; the split halves (1x + 1x) charge exactly what the fused backward
/// (2x) does, keeping total work identical across schedules.
class CostedStage : public nn::Module {
 public:
  CostedStage(ca::tp::Env env, int stage)
      : env_(env), inner_("stage" + std::to_string(stage), kHidden, kHidden,
                          500u + static_cast<unsigned>(stage)) {}

  t::Tensor forward(const t::Tensor& x) override {
    env_.dev().compute_fp16(kBlockFlops, "stage.fwd");
    return inner_.forward(x);
  }
  t::Tensor backward(const t::Tensor& dy) override {
    env_.dev().compute_fp16(2.0 * kBlockFlops, "stage.bwd");
    return inner_.backward(dy);
  }
  bool has_split_backward() const override { return true; }
  t::Tensor backward_input(const t::Tensor& dy) override {
    env_.dev().compute_fp16(kBlockFlops, "stage.dgrad");
    return inner_.backward_input(dy);
  }
  void backward_weight() override {
    env_.dev().compute_fp16(kBlockFlops, "stage.wgrad");
    inner_.backward_weight();
  }
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    inner_.collect_parameters(out);
  }

 private:
  ca::tp::Env env_;
  nn::Linear inner_;
};

/// Bucketed DP training steps at world `kWorld`; returns max_clock. Traces
/// when `trace` is set.
double run_dp(bench::World& w, bool trace) {
  if (trace) w.cluster.enable_tracing();
  const auto x = t::randn(t::Shape{kBatch, kSeq, kHidden}, 7);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(kBatch * kSeq));
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<std::int64_t>((i * 37) % kHidden);

  w.cluster.run([&](int g) {
    nn::Sequential net;
    for (int b = 0; b < kBlocks; ++b)
      net.add(std::make_unique<CostedBlock>(w.env(g), b));
    engine::Engine::Options opts;
    opts.grad_sync = engine::Engine::Options::GradSync::kBucketed;
    opts.bucket_bytes = std::int64_t{1} << 15;  // ~10 buckets to overlap
    auto eng = engine::initialize(
        w.env(g), net,
        std::make_unique<ca::optim::Sgd>(net.parameters(), 1e-3f), opts);
    for (int s = 0; s < kSteps; ++s) {
      eng->zero_grad();
      auto out = eng->forward(x);
      auto logits = out.reshape(t::Shape{kBatch * kSeq, kHidden});
      t::Tensor dl;
      t::cross_entropy(logits, labels, dl);
      eng->backward_from(dl.reshape(t::Shape{kBatch, kSeq, kHidden}));
      eng->step();
    }
  });
  return w.cluster.max_clock();
}

/// `steps` traced pipeline training steps over `kWorld` stages under
/// `sched`, with `chunks` model chunks (virtual stages) per rank; returns
/// max_clock. Consecutive steps stream back-to-back, so multi-step runs show
/// the amortized bubble (the per-step fill/drain of a schedule that keeps the
/// drain busy — zero-bubble — nearly vanishes from the window average).
double run_pp(bench::World& w, pp::Schedule sched, int chunks, int steps) {
  w.cluster.enable_tracing();
  const int micros = kMicros;
  std::vector<t::Tensor> inputs;
  for (int m = 0; m < micros; ++m)
    inputs.push_back(t::randn(t::Shape{kBatch * kSeq, kHidden},
                              100 + static_cast<std::uint64_t>(m)));
  const std::vector<std::int64_t> labels{0, 1};

  w.cluster.run([&](int g) {
    std::vector<std::unique_ptr<CostedStage>> own;
    std::vector<nn::Module*> stages;
    std::vector<t::Shape> shapes;
    for (int v = 0; v < chunks; ++v) {
      own.push_back(std::make_unique<CostedStage>(w.env(g), v * kWorld + g));
      stages.push_back(own.back().get());
      shapes.push_back(t::Shape{kBatch * kSeq, kHidden});
    }
    pp::Pipeline pipe(w.env(g), stages, shapes, sched);
    for (int s = 0; s < steps; ++s) {
      if (w.ctx.is_last_stage(g)) {
        pipe.train_step(micros, inputs,
                        [&](const t::Tensor& y, t::Tensor& dy, int) {
                          t::Tensor dl;
                          const float loss = t::cross_entropy(y, labels, dl);
                          t::scale_(dl, 1.0f / static_cast<float>(micros));
                          dy = dl;
                          return loss;
                        });
      } else {
        pipe.train_step(micros, inputs, {});
      }
    }
  });
  return w.cluster.max_clock();
}


core::Config dp_config() {
  core::Config cfg;
  cfg.data_parallel_size = kWorld;
  return cfg;
}

core::Config pp_config() {
  core::Config cfg;
  cfg.pipeline_parallel_size = kWorld;
  return cfg;
}

/// pp::time_schedule's price of one 1F1B CostedStage step in world `w`:
/// every task charges kBlockFlops of fp16, and each message carries one
/// activation in the context's wire dtype.
double predicted_1f1b_step(bench::World& w) {
  const double task_s = kBlockFlops / w.cluster.device(0).gpu().flops_fp16;
  const std::int64_t bytes =
      kBatch * kSeq * kHidden * t::dtype_bytes(w.ctx.comm_dtype());
  const pp::StageSeconds secs{
      task_s, task_s, task_s, w.cluster.topology().latency(),
      ca::collective::p2p_time(w.cluster.topology(), 0, 1, bytes)};
  return pp::time_schedule(
             *pp::compile_schedule(pp::Schedule::kOneFOneB, kWorld, kMicros, 1),
             secs)
      .step_s;
}

/// Traced bubble fraction of `steps` pipeline steps under `sched`.
double pp_bubble(pp::Schedule sched, int chunks, int steps) {
  bench::World w(sim::Topology::uniform(kWorld, 100e9), pp_config());
  run_pp(w, sched, chunks, steps);
  return obs::summarize(*w.cluster.tracer()).bubble_fraction;
}

bool check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "FAIL: %s\n", what);
  return ok;
}

}  // namespace

int main() {
  bench::header("timeline tracer: DP overlap + pipeline bubble");
  bench::JsonReport report("BENCH_trace.json");
  bool ok = true;

  // ---- scenario A: bucketed DP engine ---------------------------------------
  bench::World dp(sim::Topology::uniform(kWorld, 100e9), dp_config());
  const double dp_clock = run_dp(dp, /*trace=*/true);
  const auto dp_rep = obs::summarize(*dp.cluster.tracer());
  obs::print_report(dp_rep);
  ok &= check(obs::write_chrome_trace(*dp.cluster.tracer(), "trace_dp.json"),
              "write trace_dp.json");
  ok &= check(obs::write_report_json(dp_rep, "trace_dp_summary.json"),
              "write trace_dp_summary.json");
  ok &= check(dp_rep.comm_overlap_fraction > 0.0,
              "bucketed DP comm must overlap compute (fraction > 0)");
  ok &= check(dp_rep.comm_bytes.count("data") == 1,
              "comm volume must be attributed to the 'data' group");
  for (const auto& r : dp_rep.ranks) {
    ok &= check(r.seconds[static_cast<int>(obs::Category::kCompute)] > 0.0,
                "every rank must record compute spans");
    ok &= check(r.seconds[static_cast<int>(obs::Category::kComm)] > 0.0,
                "every rank must record comm spans");
  }

  // Tracing must observe, not perturb: identical run without the tracer
  // lands on the exact same simulated clock.
  bench::World dp_ref(sim::Topology::uniform(kWorld, 100e9), dp_config());
  const double dp_clock_ref = run_dp(dp_ref, /*trace=*/false);
  ok &= check(dp_clock == dp_clock_ref,
              "traced and untraced runs must have identical sim clocks");

  std::printf("DP  world %d: sim %.3f ms, comm overlap %.1f%%\n", kWorld,
              dp_clock * 1e3, dp_rep.comm_overlap_fraction * 100.0);
  report.add("trace_dp_overlap_fraction",
             "blocks" + std::to_string(kBlocks) + "_world" +
                 std::to_string(kWorld),
             dp_rep.comm_overlap_fraction, 0.0);

  // ---- scenario B: 1F1B pipeline --------------------------------------------
  bench::World pipe(sim::Topology::uniform(kWorld, 100e9), pp_config());
  const double pp_clock = run_pp(pipe, pp::Schedule::kOneFOneB, 1, 1);
  const auto pp_rep = obs::summarize(*pipe.cluster.tracer());
  obs::print_report(pp_rep);
  ok &= check(obs::write_chrome_trace(*pipe.cluster.tracer(), "trace_pp.json"),
              "write trace_pp.json");
  ok &= check(obs::write_report_json(pp_rep, "trace_pp_summary.json"),
              "write trace_pp_summary.json");
  ok &= check(pp_rep.bubble_fraction > 0.0,
              "a 4-stage pipeline must show a bubble");
  const double pp_predicted = predicted_1f1b_step(pipe);
  ok &= check(pp_clock == pp_predicted,
              "time_schedule must predict the executed 1F1B step exactly");

  std::printf("PP  world %d: sim %.6f ms (time_schedule %.6f ms), bubble "
              "%.1f%%\n",
              kWorld, pp_clock * 1e3, pp_predicted * 1e3,
              pp_rep.bubble_fraction * 100.0);
  report.add("trace_pp_bubble_fraction",
             "stages" + std::to_string(kWorld) + "_micros8",
             pp_rep.bubble_fraction, 0.0);

  // ---- scenario C: schedule shoot-out ----------------------------------------
  // Same stages/micros/costs, different compiled schedules. Interleaving
  // (2 chunks per rank) shrinks the single-step bubble; over 8 back-to-back
  // steps the deferred-wgrad zero-bubble schedule keeps the drain busy and
  // the measured window bubble collapses, while 1F1B keeps paying its
  // fill and drain every step.
  const double il_1 = pp_bubble(pp::Schedule::kInterleaved, 2, 1);
  const double f1b_8 = pp_bubble(pp::Schedule::kOneFOneB, 1, 8);
  const double zb_8 = pp_bubble(pp::Schedule::kZeroBubble, 1, 8);
  const double zbv_8 = pp_bubble(pp::Schedule::kZeroBubble, 2, 8);
  std::printf("PP  schedules: interleaved(V=2) %.1f%% | over 8 steps: "
              "1f1b %.1f%%, zero_bubble %.1f%%, zero_bubble(V=2) %.1f%%\n",
              il_1 * 100.0, f1b_8 * 100.0, zb_8 * 100.0, zbv_8 * 100.0);
  ok &= check(il_1 < pp_rep.bubble_fraction,
              "interleaved virtual stages must shrink the 1F1B bubble");
  ok &= check(zb_8 < f1b_8,
              "zero-bubble must beat 1F1B over back-to-back steps");
  ok &= check(zbv_8 <= 0.05,
              "chunked zero-bubble steady-state bubble must stay within 5%");
  report.add("trace_pp_bubble_fraction",
             "stages" + std::to_string(kWorld) + "_micros8_interleaved2", il_1,
             0.0);
  report.add("trace_pp_bubble_fraction",
             "stages" + std::to_string(kWorld) + "_micros8_steps8_1f1b", f1b_8,
             0.0);
  report.add("trace_pp_bubble_fraction",
             "stages" + std::to_string(kWorld) + "_micros8_steps8_zero_bubble",
             zb_8, 0.0);
  report.add("trace_pp_bubble_fraction",
             "stages" + std::to_string(kWorld) +
                 "_micros8_steps8_zero_bubble_chunks2",
             zbv_8, 0.0);

  // bf16 wire: the same pipeline step moves half the bytes (satellite check
  // mirroring tests/test_pp.cpp's exact 2x assertion, here at bench scale)
  {
    bench::World full(sim::Topology::uniform(kWorld, 100e9), pp_config());
    full.ctx.set_comm_dtype(t::Dtype::kF32);
    run_pp(full, pp::Schedule::kOneFOneB, 1, 1);
    bench::World half(sim::Topology::uniform(kWorld, 100e9), pp_config());
    half.ctx.set_comm_dtype(t::Dtype::kBF16);
    run_pp(half, pp::Schedule::kOneFOneB, 1, 1);
    const auto fb = full.cluster.total_bytes_sent();
    const auto hb = half.cluster.total_bytes_sent();
    std::printf("PP  wire bytes: f32 %lld B, bf16 %lld B\n",
                static_cast<long long>(fb), static_cast<long long>(hb));
    ok &= check(fb > 0 && hb * 2 == fb,
                "bf16 wire must halve pipeline p2p bytes");
  }

  report.write();
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
