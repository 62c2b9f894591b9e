// Figure 8 (a-d): memory range tests for tensor parallelism. Two chained
// linear layers on transformer-style inputs (rows = batch * seq, seq 512);
// per-device peak memory from the analytic model, which test_tp.cpp
// cross-validates against measured MemoryTracker peaks at small sizes.
//
//   (a) batch sweep, 4 GPUs: 1D vs 2D vs 2.5D(d=1) — one grid, so the last
//       two columns agree (2D is the 2.5D grid at depth 1)
//   (b) batch sweep, 8 GPUs: 1D vs 2.5D(d=2) vs 3D
//   (c) hidden sweep, 4 GPUs
//   (d) hidden sweep, 8 GPUs

#include "bench_common.hpp"
#include "tp/memory_model.hpp"

using namespace ca;

namespace {

constexpr std::int64_t kSeq = 512;

double gib(std::int64_t bytes) { return static_cast<double>(bytes) / (1 << 30); }

void batch_sweep(int gpus) {
  bench::header("Figure 8" + std::string(gpus == 4 ? "a" : "b") +
                ": batch-size range test, " + std::to_string(gpus) +
                " GPUs (hidden=8192, GiB per device)");
  if (gpus == 4) {
    std::printf("%-8s %-10s %-10s %-10s\n", "batch", "1D", "2D", "2.5D(d=1)");
  } else {
    std::printf("%-8s %-10s %-12s %-10s\n", "batch", "1D", "2.5D(d=2)", "3D");
  }
  for (std::int64_t b : {64, 128, 256, 512}) {
    tp::TwoLayerShape s{b * kSeq, 8192, 4};
    if (gpus == 4) {
      std::printf("%-8lld %-10.1f %-10.1f %-10.1f\n", static_cast<long long>(b),
                  gib(tp::two_layer_peak_1d(s, 4)),
                  gib(tp::two_layer_peak_2p5d(s, 4, 1)),
                  gib(tp::two_layer_peak_2p5d(s, 4, 1)));
    } else {
      std::printf("%-8lld %-10.1f %-12.1f %-10.1f\n", static_cast<long long>(b),
                  gib(tp::two_layer_peak_1d(s, 8)),
                  gib(tp::two_layer_peak_2p5d(s, 8, 2)),
                  gib(tp::two_layer_peak_3d(s, 8)));
    }
  }
}

void hidden_sweep(int gpus) {
  bench::header("Figure 8" + std::string(gpus == 4 ? "c" : "d") +
                ": hidden-size range test, " + std::to_string(gpus) +
                " GPUs (batch=512, GiB per device)");
  if (gpus == 4) {
    std::printf("%-8s %-10s %-10s %-10s\n", "hidden", "1D", "2D", "2.5D(d=1)");
  } else {
    std::printf("%-8s %-10s %-12s %-10s\n", "hidden", "1D", "2.5D(d=2)", "3D");
  }
  for (std::int64_t h : {2048, 4096, 8192, 16384}) {
    tp::TwoLayerShape s{512 * kSeq, h, 4};
    if (gpus == 4) {
      std::printf("%-8lld %-10.1f %-10.1f %-10.1f\n", static_cast<long long>(h),
                  gib(tp::two_layer_peak_1d(s, 4)),
                  gib(tp::two_layer_peak_2p5d(s, 4, 1)),
                  gib(tp::two_layer_peak_2p5d(s, 4, 1)));
    } else {
      std::printf("%-8lld %-10.1f %-12.1f %-10.1f\n", static_cast<long long>(h),
                  gib(tp::two_layer_peak_1d(s, 8)),
                  gib(tp::two_layer_peak_2p5d(s, 8, 2)),
                  gib(tp::two_layer_peak_3d(s, 8)));
    }
  }
}

}  // namespace

int main() {
  batch_sweep(4);
  batch_sweep(8);
  hidden_sweep(4);
  hidden_sweep(8);

  // headline ratios at the paper's operating points
  tp::TwoLayerShape big_b{512 * kSeq, 8192, 4};
  const double r25_b = 1.0 - static_cast<double>(tp::two_layer_peak_2p5d(big_b, 8, 2)) /
                                 static_cast<double>(tp::two_layer_peak_1d(big_b, 8));
  const double r3_b = 1.0 - static_cast<double>(tp::two_layer_peak_3d(big_b, 8)) /
                                static_cast<double>(tp::two_layer_peak_1d(big_b, 8));
  tp::TwoLayerShape big_h{512 * kSeq, 16384, 4};
  const double r25_h = 1.0 - static_cast<double>(tp::two_layer_peak_2p5d(big_h, 8, 2)) /
                                 static_cast<double>(tp::two_layer_peak_1d(big_h, 8));
  const double r3_h = 1.0 - static_cast<double>(tp::two_layer_peak_3d(big_h, 8)) /
                                static_cast<double>(tp::two_layer_peak_1d(big_h, 8));
  std::printf("\nheadline reductions vs 1D at 8 GPUs:\n");
  std::printf("  batch=512:   2.5D %.0f%%, 3D %.0f%%   (paper: 44%% / 65%%)\n",
              100 * r25_b, 100 * r3_b);
  std::printf("  hidden=16384: 2.5D %.0f%%, 3D %.0f%%  (paper: 62%% / 74.2%%)\n",
              100 * r25_h, 100 * r3_h);
  return 0;
}
