// Figure 7: convergence of multi-dimensional tensor parallelism. The paper
// trains ViT on ImageNet-1k for 250 epochs and shows every tensor-parallel
// mode's test-accuracy curve lying on the PyTorch data-parallel curve. Here
// the same property is demonstrated on the synthetic classification task:
// identical data + identical seeds => per-step losses and accuracies of all
// modes coincide with the serial run.

#include <vector>

#include "bench_common.hpp"
#include "data/synthetic.hpp"
#include "models/classifier.hpp"
#include "models/gpt.hpp"
#include "models/transformer_classifier.hpp"

using namespace ca;

namespace {

struct Curve {
  std::string label;
  std::vector<float> loss;
  std::vector<float> acc;
};

constexpr int kSteps = 30;
constexpr int kEvalEvery = 5;
constexpr std::int64_t kBatch = 32;

models::Classifier::Config model_cfg() { return {16, 32, 8, 2, /*seed=*/3}; }

data::SyntheticClassification dataset() {
  return data::SyntheticClassification(65536, 16, 8, /*seed=*/91);
}

Curve run_serial() {
  Curve c{"serial (data parallel)", {}, {}};
  auto ds = dataset();
  models::Classifier model(model_cfg());
  auto xe = ds.batch_features(50000, 512);
  auto ye = ds.batch_labels(50000, 512);
  for (int s = 0; s < kSteps; ++s) {
    auto x = ds.batch_features(s * kBatch, kBatch);
    auto y = ds.batch_labels(s * kBatch, kBatch);
    for (nn::Parameter* p : model.parameters()) p->grad.fill(0.0f);
    c.loss.push_back(model.train_batch(x, y));
    for (nn::Parameter* p : model.parameters())
      tensor::axpy_(p->value, -0.05f, p->grad);
    if (s % kEvalEvery == 0) c.acc.push_back(model.eval_accuracy(xe, ye));
  }
  return c;
}

Curve run_parallel(core::TpMode mode, int p, int depth, const char* label) {
  Curve c{label, {}, {}};
  auto ds = dataset();
  bench::World w(sim::Topology::uniform(p, 100e9),
                 bench::tp_config(mode, p, depth));
  // This section demonstrates exact serial equivalence: fp32 wire.
  w.ctx.set_comm_dtype(tensor::Dtype::kF32);
  std::vector<float> loss0(kSteps);
  std::vector<float> acc0;
  w.cluster.run([&](int g) {
    models::Classifier model(w.env(g), model_cfg());
    auto xe = ds.batch_features(50000, 512);
    auto ye = ds.batch_labels(50000, 512);
    for (int s = 0; s < kSteps; ++s) {
      auto x = ds.batch_features(s * kBatch, kBatch);
      auto y = ds.batch_labels(s * kBatch, kBatch);
      for (nn::Parameter* pp : model.parameters()) pp->grad.fill(0.0f);
      const float l = model.train_batch(x, y);
      for (nn::Parameter* pp : model.parameters())
        tensor::axpy_(pp->value, -0.05f, pp->grad);
      // evaluation is also SPMD: every rank runs the collectives
      float acc = -1.0f;
      if (s % kEvalEvery == 0) acc = model.eval_accuracy(xe, ye);
      if (g == 0) {
        loss0[static_cast<std::size_t>(s)] = l;
        if (acc >= 0.0f) acc0.push_back(acc);
      }
    }
  });
  c.loss = loss0;
  c.acc = acc0;
  return c;
}

// ---- ViT-style transformer under every mode ------------------------------------------

models::TransformerClassifier::Config vit_cfg() {
  models::TransformerClassifier::Config cfg;
  cfg.patches = 8;
  cfg.patch_dim = 16;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.ffn = 64;
  cfg.blocks = 2;
  cfg.classes = 8;
  cfg.seed = 7;
  return cfg;
}

std::vector<float> vit_serial(int steps, const data::SyntheticClassification& ds) {
  auto cfg = vit_cfg();
  models::TransformerClassifier model(cfg);
  std::vector<float> losses;
  for (int s = 0; s < steps; ++s) {
    auto x = ds.batch_features(s * kBatch, kBatch)
                 .reshape(tensor::Shape{kBatch, cfg.patches, cfg.patch_dim});
    auto y = ds.batch_labels(s * kBatch, kBatch);
    for (nn::Parameter* p : model.parameters()) p->grad.fill(0.0f);
    losses.push_back(model.train_batch(x, y));
    for (nn::Parameter* p : model.parameters())
      tensor::axpy_(p->value, -0.05f, p->grad);
  }
  return losses;
}

std::vector<float> vit_parallel(core::TpMode mode, int p, int depth, int steps,
                                const data::SyntheticClassification& ds,
                                tensor::Dtype wire = tensor::Dtype::kF32) {
  auto cfg = vit_cfg();
  bench::World w(sim::Topology::uniform(p, 100e9),
                 bench::tp_config(mode, p, depth));
  w.ctx.set_comm_dtype(wire);
  std::vector<float> losses(static_cast<std::size_t>(steps));
  w.cluster.run([&](int g) {
    models::TransformerClassifier model(w.env(g), cfg);
    for (int s = 0; s < steps; ++s) {
      auto x = ds.batch_features(s * kBatch, kBatch)
                   .reshape(tensor::Shape{kBatch, cfg.patches, cfg.patch_dim});
      auto y = ds.batch_labels(s * kBatch, kBatch);
      for (nn::Parameter* pp : model.parameters()) pp->grad.fill(0.0f);
      const float l = model.train_batch(x, y);
      for (nn::Parameter* pp : model.parameters())
        tensor::axpy_(pp->value, -0.05f, pp->grad);
      if (g == 0) losses[static_cast<std::size_t>(s)] = l;
    }
  });
  return losses;
}

void vit_transformer_section() {
  bench::header(
      "Figure 7 (transformer form): ViT-style blocks under every TP mode");
  const int steps = 12;
  data::SyntheticClassification ds(65536, 8 * 16, 8, 91);
  struct Row {
    const char* label;
    std::vector<float> losses;
  };
  std::vector<Row> rows;
  rows.push_back({"serial", vit_serial(steps, ds)});
  rows.push_back({"1D(4)", vit_parallel(core::TpMode::k1d, 4, 1, steps, ds)});
  rows.push_back({"2D(4)", vit_parallel(core::TpMode::k2d, 4, 1, steps, ds)});
  rows.push_back(
      {"2.5D(8,d=2)", vit_parallel(core::TpMode::k2p5d, 8, 2, steps, ds)});
  rows.push_back({"3D(8)", vit_parallel(core::TpMode::k3d, 8, 1, steps, ds)});

  std::printf("%-8s", "step");
  for (const auto& r : rows) std::printf("%-14s", r.label);
  std::printf("\n");
  for (int s = 0; s < steps; s += 2) {
    std::printf("%-8d", s);
    for (const auto& r : rows)
      std::printf("%-14.5f", r.losses[static_cast<std::size_t>(s)]);
    std::printf("\n");
  }
  float dev = 0.0f;
  for (const auto& r : rows)
    for (int s = 0; s < steps; ++s)
      dev = std::max(dev, std::abs(r.losses[static_cast<std::size_t>(s)] -
                                   rows[0].losses[static_cast<std::size_t>(s)]));
  std::printf("max deviation from serial: %.2e (attention + LayerNorm + MLP, "
              "all modes)\n", dev);
}

// ---- half-precision wire: convergence stays on the fp32 curve ------------------------

/// ViT-style transformer and GPT under 1D tensor parallelism with a bf16
/// wire, against the serial fp32 trajectories. The activation/gradient
/// exchanges are rounded to bf16 on the interconnect, so losses drift by
/// O(2^-8) per exchange instead of matching bit-for-bit; the pinned
/// tolerances bound that drift. Returns false when either model leaves the
/// fp32 curve.
bool halfwire_section() {
  bench::header("half wire (bf16): convergence vs the fp32 serial curve");
  constexpr float kVitTol = 5e-2f;
  constexpr float kGptTol = 5e-2f;

  // ViT-style blocks, 1D TP over 4 ranks on a bf16 wire.
  const int steps = 12;
  data::SyntheticClassification ds(65536, 8 * 16, 8, 91);
  const auto serial = vit_serial(steps, ds);
  const auto bf16 =
      vit_parallel(core::TpMode::k1d, 4, 1, steps, ds, tensor::Dtype::kBF16);
  float vit_dev = 0.0f;
  for (int s = 0; s < steps; ++s)
    vit_dev = std::max(vit_dev, std::abs(bf16[static_cast<std::size_t>(s)] -
                                         serial[static_cast<std::size_t>(s)]));

  // GPT next-token LM, 1D TP over 2 ranks on a bf16 wire.
  const int gpt_steps = 10;
  models::GptModel::Config gcfg;
  gcfg.vocab = 64;
  gcfg.seq = 8;
  gcfg.hidden = 16;
  gcfg.heads = 2;
  gcfg.ffn = 32;
  gcfg.layers = 2;
  gcfg.seed = 3;
  const std::int64_t gbatch = 4;
  data::SyntheticTokens stream(gcfg.vocab, 5);

  std::vector<float> gpt_serial;
  {
    models::GptModel m(gcfg);
    for (int s = 0; s < gpt_steps; ++s) {
      auto toks = stream.tokens(s * gbatch * gcfg.seq, gbatch * gcfg.seq);
      for (nn::Parameter* p : m.parameters()) p->grad.fill(0.0f);
      gpt_serial.push_back(m.train_batch(toks, gbatch));
      for (nn::Parameter* p : m.parameters())
        tensor::axpy_(p->value, -0.05f, p->grad);
    }
  }
  std::vector<float> gpt_bf16(static_cast<std::size_t>(gpt_steps));
  {
    bench::World w(sim::Topology::uniform(2, 100e9),
                   bench::tp_config(core::TpMode::k1d, 2));
    w.ctx.set_comm_dtype(tensor::Dtype::kBF16);
    w.cluster.run([&](int g) {
      models::GptModel m(w.env(g), gcfg);
      for (int s = 0; s < gpt_steps; ++s) {
        auto toks = stream.tokens(s * gbatch * gcfg.seq, gbatch * gcfg.seq);
        for (nn::Parameter* p : m.parameters()) p->grad.fill(0.0f);
        const float l = m.train_batch(toks, gbatch);
        for (nn::Parameter* p : m.parameters())
          tensor::axpy_(p->value, -0.05f, p->grad);
        if (g == 0) gpt_bf16[static_cast<std::size_t>(s)] = l;
      }
    });
  }
  float gpt_dev = 0.0f;
  for (int s = 0; s < gpt_steps; ++s)
    gpt_dev = std::max(gpt_dev,
                       std::abs(gpt_bf16[static_cast<std::size_t>(s)] -
                                gpt_serial[static_cast<std::size_t>(s)]));

  std::printf("%-8s %-14s %-14s %-14s %-14s\n", "step", "vit fp32",
              "vit bf16", "gpt fp32", "gpt bf16");
  for (int s = 0; s < std::min(steps, gpt_steps); s += 2)
    std::printf("%-8d %-14.5f %-14.5f %-14.5f %-14.5f\n", s,
                serial[static_cast<std::size_t>(s)],
                bf16[static_cast<std::size_t>(s)],
                gpt_serial[static_cast<std::size_t>(s)],
                gpt_bf16[static_cast<std::size_t>(s)]);
  std::printf("max deviation from fp32 serial: vit %.2e (tol %.0e), "
              "gpt %.2e (tol %.0e)\n",
              static_cast<double>(vit_dev), static_cast<double>(kVitTol),
              static_cast<double>(gpt_dev), static_cast<double>(kGptTol));

  bool ok = true;
  if (!(vit_dev < kVitTol)) {
    std::printf("FAIL: ViT bf16 trajectory left the fp32 curve\n");
    ok = false;
  }
  if (!(gpt_dev < kGptTol)) {
    std::printf("FAIL: GPT bf16 trajectory left the fp32 curve\n");
    ok = false;
  }
  return ok;
}

}  // namespace

int main() {
  bench::header("Figure 7: convergence of tensor-parallel training");

  std::vector<Curve> curves;
  curves.push_back(run_serial());
  curves.push_back(run_parallel(core::TpMode::k1d, 4, 1, "1D (4 GPUs)"));
  curves.push_back(run_parallel(core::TpMode::k2d, 4, 1, "2D (4 GPUs)"));
  curves.push_back(run_parallel(core::TpMode::k2p5d, 8, 2, "2.5D (8 GPUs, d=2)"));
  curves.push_back(run_parallel(core::TpMode::k3d, 8, 1, "3D (8 GPUs)"));

  std::printf("\nper-step training loss:\n%-8s", "step");
  for (const auto& c : curves) std::printf("%-22s", c.label.c_str());
  std::printf("\n");
  for (int s = 0; s < kSteps; s += 5) {
    std::printf("%-8d", s);
    for (const auto& c : curves)
      std::printf("%-22.5f", c.loss[static_cast<std::size_t>(s)]);
    std::printf("\n");
  }

  std::printf("\nheld-out accuracy (every %d steps):\n%-8s", kEvalEvery, "eval");
  for (const auto& c : curves) std::printf("%-22s", c.label.c_str());
  std::printf("\n");
  for (std::size_t e = 0; e < curves[0].acc.size(); ++e) {
    std::printf("%-8zu", e);
    for (const auto& c : curves) std::printf("%-22.4f", c.acc[e]);
    std::printf("\n");
  }

  float max_dev = 0.0f;
  for (const auto& c : curves)
    for (int s = 0; s < kSteps; ++s)
      max_dev = std::max(max_dev,
                         std::abs(c.loss[static_cast<std::size_t>(s)] -
                                  curves[0].loss[static_cast<std::size_t>(s)]));
  std::printf("\nmax deviation of any mode from the serial curve: %.2e\n",
              max_dev);
  std::printf("(the paper's claim: all tensor-parallel curves align with data "
              "parallel training)\n");

  vit_transformer_section();
  return halfwire_section() ? 0 : 1;
}
