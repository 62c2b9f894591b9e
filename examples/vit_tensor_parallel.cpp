// Train a small Vision-Transformer classifier under Megatron-style 1D tensor
// parallelism and verify against the serial model — the functional analogue
// of the paper's ViT experiments (Sections 5.2).
//
//   build/examples/vit_tensor_parallel

#include <cstdio>

#include "collective/backend.hpp"
#include "core/context.hpp"
#include "data/synthetic.hpp"
#include "models/vit.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"

using namespace ca;

namespace {

/// Pseudo-images: one feature vector per patch, drawn from class clusters.
tensor::Tensor make_patches(const data::SyntheticClassification& ds,
                            std::int64_t start, std::int64_t batch,
                            std::int64_t patches, std::int64_t patch_dim) {
  auto flat = ds.batch_features(start, batch);  // (batch, patches*patch_dim)
  return flat.reshape(tensor::Shape{batch, patches, patch_dim});
}

}  // namespace

int main() {
  models::VitClassifier::Config vc;
  vc.patches = 16;
  vc.patch_dim = 12;
  vc.hidden = 48;
  vc.heads = 4;
  vc.ffn = 96;
  vc.layers = 2;
  vc.classes = 8;
  vc.seed = 11;

  data::SyntheticClassification ds(8192, vc.patches * vc.patch_dim, vc.classes,
                                   21);
  const std::int64_t batch = 16;
  const int steps = 25;
  const float lr = 0.03f;

  // ---- serial reference -------------------------------------------------------
  models::VitClassifier serial(vc);
  float serial_last = 0.0f;
  for (int s = 0; s < steps; ++s) {
    auto x = make_patches(ds, s * batch, batch, vc.patches, vc.patch_dim);
    auto y = ds.batch_labels(s * batch, batch);
    for (nn::Parameter* p : serial.parameters()) p->grad.fill(0.0f);
    serial_last = serial.train_batch(x, y);
    for (nn::Parameter* p : serial.parameters())
      tensor::axpy_(p->value, -lr, p->grad);
  }

  // ---- the same model, 1D tensor parallel over 4 simulated A100s ---------------
  core::Config config;
  config.tensor_parallel_size = 4;
  config.tensor_mode = core::TpMode::k1d;
  sim::Cluster cluster(sim::Topology::system_i());
  // System I has 8 GPUs; use a 4-GPU slice
  sim::Cluster cluster4(sim::Topology::uniform(4, 184e9));
  collective::Backend backend(cluster4);
  core::ParallelContext ctx(backend, config);

  std::vector<float> tp_last(4);
  cluster4.run([&](int rank) {
    tp::Env env{&ctx, rank};
    models::VitClassifier model(env, vc);
    float loss = 0.0f;
    for (int s = 0; s < steps; ++s) {
      auto x = make_patches(ds, s * batch, batch, vc.patches, vc.patch_dim);
      auto y = ds.batch_labels(s * batch, batch);
      for (nn::Parameter* p : model.parameters()) p->grad.fill(0.0f);
      loss = model.train_batch(x, y);
      for (nn::Parameter* p : model.parameters())
        tensor::axpy_(p->value, -lr, p->grad);
    }
    tp_last[static_cast<std::size_t>(rank)] = loss;
  });

  std::printf("ViT training, %d steps:\n", steps);
  std::printf("  serial          final loss %.5f\n", serial_last);
  std::printf("  1D TP (4 GPUs)  final loss %.5f\n", tp_last[0]);
  std::printf("  divergence: %.2e  (arithmetic equivalence, Figure 7)\n",
              std::abs(serial_last - tp_last[0]));
  std::printf("  simulated time/step %.3f ms, traffic %.1f MB\n",
              1e3 * cluster4.max_clock() / steps,
              static_cast<double>(cluster4.total_bytes_sent()) / 1e6);
  return 0;
}
