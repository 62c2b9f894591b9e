// Table 3: tensor-parallel ViT throughput from 4 to 64 GPUs on System IV
// (64 single-P100 nodes on a Cray Aries fabric). Uses the paper's model
// configurations and batch sizes per row; reports img/sec and the speedup of
// each advanced mode over 1D — the paper's headline 2.76x appears for 2D at
// 64 GPUs, where 1D's full-group all-reduces hit the 10 GB/s fabric hardest.

#include "bench_common.hpp"
#include "tp/sim_transformer.hpp"

using namespace ca;

namespace {

struct Row {
  int gpus;
  const char* mode_label;
  core::TpMode mode;
  int depth;
  std::int64_t batch;
};

struct RowResult {
  double imgs_per_sec;   // simulated throughput (the paper's Table 3 number)
  double wall_step_ns;   // harness wall-clock per step — the hot path we tune
};

RowResult run_row(const Row& r) {
  tp::TransformerShape shape;
  const bool small = r.gpus <= 8;
  shape.layers = small ? 24 : 32;
  shape.hidden = small ? 2048 : 4096;
  shape.heads = small ? 32 : 64;
  shape.seq = 197;
  shape.batch = r.batch;
  shape.bytes_per_elem = 2;

  bench::World w(sim::Topology::system_iv(r.gpus),
                 bench::tp_config(r.mode, r.gpus, r.depth));
  const auto t0 = std::chrono::steady_clock::now();
  w.cluster.run([&](int g) {
    tp::SimTransformer model(w.env(g), r.mode, shape);
    model.train_step();
  });
  const auto t1 = std::chrono::steady_clock::now();
  return {static_cast<double>(r.batch) / w.cluster.max_clock(),
          std::chrono::duration<double, std::nano>(t1 - t0).count()};
}

}  // namespace

int main() {
  bench::header("Table 3: tensor parallelism on System IV (P100 nodes)");
  std::printf("%-7s %-10s %-8s %-8s %-8s %-8s %-14s %-14s\n", "#GPUs", "mode",
              "#layer", "hidden", "#heads", "batch", "img/sec",
              "speedup vs 1D");

  const Row rows[] = {
      {4, "1D", core::TpMode::k1d, 1, 128},
      {4, "2D", core::TpMode::k2d, 1, 256},
      {4, "2.5D", core::TpMode::k2p5d, 1, 256},
      {8, "1D", core::TpMode::k1d, 1, 256},
      {8, "2.5D", core::TpMode::k2p5d, 2, 384},
      {8, "3D", core::TpMode::k3d, 1, 512},
      {16, "1D", core::TpMode::k1d, 1, 64},
      {16, "2D", core::TpMode::k2d, 1, 256},
      {16, "2.5D", core::TpMode::k2p5d, 4, 256},
      {32, "1D", core::TpMode::k1d, 1, 128},
      {32, "2.5D", core::TpMode::k2p5d, 2, 256},
      {64, "1D", core::TpMode::k1d, 1, 128},
      {64, "2D", core::TpMode::k2d, 1, 512},
      {64, "2.5D", core::TpMode::k2p5d, 4, 512},
      {64, "3D", core::TpMode::k3d, 1, 512},
  };

  bench::JsonReport report("BENCH_tp_scaling.json");
  double base = 0.0;
  int base_gpus = 0;
  double best_speedup = 0.0;
  for (const Row& r : rows) {
    const RowResult res = run_row(r);
    const double imgs = res.imgs_per_sec;
    if (r.gpus != base_gpus) {
      base = imgs;  // first row of each block is 1D
      base_gpus = r.gpus;
    }
    const double speedup = (imgs / base - 1.0) * 100.0;
    best_speedup = std::max(best_speedup, imgs / base);
    const bool small = r.gpus <= 8;
    std::printf("%-7d %-10s %-8d %-8d %-8d %-8lld %-14.2f %+.1f%%\n", r.gpus,
                r.mode_label, small ? 24 : 32, small ? 2048 : 4096,
                small ? 32 : 64, static_cast<long long>(r.batch), imgs,
                speedup);
    // The simulated img/s is the paper's number: deterministic, so the
    // regression gate holds it exactly. The wall row is the harness
    // wall-clock per simulated train step (reported, not gated).
    const std::string shape = "gpus=" + std::to_string(r.gpus) +
                              " batch=" + std::to_string(r.batch);
    report.add(std::string("tp_sim_img_per_s_") + r.mode_label, shape, imgs,
               0.0);
    report.add(std::string("wall_tp_step_") + r.mode_label, shape,
               res.wall_step_ns, 0.0);
  }
  std::printf("\nbest speedup of advanced tensor parallelism over 1D: %.2fx "
              "(paper: up to 2.76x)\n", best_speedup);
  report.write();
  return 0;
}
