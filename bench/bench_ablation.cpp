// Ablation benches for design choices DESIGN.md calls out:
//   1. chunk size sweep for the PatrickStar-style chunk manager (bandwidth
//      utilization vs fragmentation),
//   2. pipeline schedule memory: fill-drain vs 1F1B in-flight micro-batches,
//   3. ring all-reduce vs naive (star) all-reduce traffic and time.

#include "bench_common.hpp"
#include "collective/cost.hpp"
#include "pp/pipeline.hpp"
#include "zero/offload.hpp"

using namespace ca;

namespace {

void chunk_size_sweep() {
  bench::header("Ablation 1: chunk size (GPT-2 10B, 1 GPU, static offload)");
  std::printf("%-12s %-10s %-14s %-14s\n", "chunk (MiB)", "#chunks",
              "step (s)", "waste (MiB)");
  const zero::StaticOffloadPolicy policy;
  for (std::int64_t mib : {8, 32, 64, 256, 1024}) {
    bench::World w(sim::Topology::uniform(1, 15e9, sim::a100_80gb()), [] {
      core::Config cfg;
      return cfg;
    }());
    zero::OffloadWorkload work;  // GPT-2 10B defaults
    double step = 0.0;
    std::int64_t chunks = 0, waste = 0;
    w.cluster.run([&](int g) {
      zero::SimOffloadTrainer trainer(w.env(g), work, policy, mib << 20);
      trainer.train_step();
      chunks = static_cast<std::int64_t>(trainer.chunks().num_chunks());
      for (std::size_t c = 0; c < trainer.chunks().num_chunks(); ++c)
        waste += trainer.chunks().chunk(static_cast<int>(c)).free_bytes();
    });
    step = w.cluster.max_clock();
    std::printf("%-12lld %-10lld %-14.3f %-14lld\n",
                static_cast<long long>(mib), static_cast<long long>(chunks),
                step, static_cast<long long>(waste >> 20));
  }
  std::printf("(small chunks fragment; huge chunks move dead weight — the "
              "sweet spot motivates PatrickStar's chunking)\n");
}

void pipeline_memory() {
  bench::header("Ablation 2: pipeline schedule peak in-flight micro-batches");
  std::printf("%-10s %-14s %-22s\n", "micros", "fill-drain", "1F1B (stage 0)");
  for (int micros : {4, 8, 16}) {
    // closed form, matching the tested Pipeline implementation: fill-drain
    // parks every micro-batch; 1F1B parks at most stages - rank.
    std::printf("%-10d %-14d %-22d\n", micros, micros,
                std::min(micros, 2));
  }
  std::printf("bubble fraction is identical for both: ");
  for (int micros : {4, 8, 16})
    std::printf("M=%d: %.2f  ", micros, pp::bubble_fraction(2, micros));
  std::printf("\n");

  std::printf("\ninterleaved virtual stages shrink the bubble (8 stages, "
              "M=8):\n  chunks: ");
  for (int v : {1, 2, 4, 7}) {
    std::printf("V=%d: %.3f  ", v, pp::bubble_fraction_interleaved(8, 8, v));
  }
  std::printf("\n  (the interleaved Pipeline schedule runs these virtual stages "
              "functionally; test_pp verifies gradient equality)\n");
}

void allreduce_algorithms() {
  bench::header("Ablation 3: ring vs naive (gather+broadcast) all-reduce, "
                "100 MB payload");
  std::printf("%-8s %-16s %-16s %-16s\n", "p", "topology", "ring (ms)",
              "naive (ms)");
  const std::int64_t bytes = 100 * 1000 * 1000;
  constexpr auto kChunked = collective::Algo::kChunked;
  for (const auto& topo :
       {sim::Topology::system_i(), sim::Topology::system_ii()}) {
    for (int p : {4, 8}) {
      std::vector<int> ranks;
      for (int r = 0; r < p; ++r) ranks.push_back(r);
      const double ring = collective::collective_time(
          collective::Op::kAllReduce, kChunked, topo, ranks, bytes);
      // naive: reduce to root then broadcast, each moving the full payload
      const double naive =
          collective::collective_time(collective::Op::kReduce, kChunked, topo,
                                      ranks, bytes) +
          collective::collective_time(collective::Op::kBroadcast, kChunked,
                                      topo, ranks, bytes);
      std::printf("%-8d %-16s %-16.2f %-16.2f\n", p,
                  topo.name().substr(0, 9).c_str(), 1e3 * ring, 1e3 * naive);
    }
  }
}

}  // namespace

int main() {
  chunk_size_sweep();
  pipeline_memory();
  allreduce_algorithms();
  return 0;
}
