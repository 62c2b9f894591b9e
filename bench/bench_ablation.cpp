// Ablation benches for design choices DESIGN.md calls out:
//   1. chunk size sweep for the PatrickStar-style chunk manager (bandwidth
//      utilization vs fragmentation),
//   2. pipeline schedule memory: fill-drain vs 1F1B in-flight micro-batches
//      and bubbles, replayed from the compiled schedules,
//   3. ring all-reduce vs naive (star) all-reduce traffic and time.

#include "bench_common.hpp"
#include "collective/cost.hpp"
#include "pp/schedule.hpp"
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

/// One replayed step of `sched` at unit per-chunk costs (a stage's forward,
/// dgrad and wgrad each take 1 / chunks; free links).
pp::PipeTiming unit_timing(pp::Schedule sched, int stages, int micros,
                           int chunks) {
  const double c = 1.0 / chunks;
  return pp::time_schedule(
      *pp::compile_schedule(sched, stages, micros, chunks),
      pp::StageSeconds{c, c, c, 0.0, 0.0});
}

void pipeline_memory() {
  bench::header("Ablation 2: pipeline schedule peak in-flight micro-batches");
  std::printf("(compiled programs replayed by pp::time_schedule, 2 stages, "
              "unit costs)\n");
  std::printf("%-10s %-14s %-14s %-14s %-14s\n", "micros", "fill-drain",
              "1F1B", "bubble fd", "bubble 1F1B");
  for (int micros : {4, 8, 16}) {
    const auto fd = unit_timing(pp::Schedule::kFillDrain, 2, micros, 1);
    const auto f1b = unit_timing(pp::Schedule::kOneFOneB, 2, micros, 1);
    std::printf("%-10d %-14d %-14d %-14.3f %-14.3f\n", micros, fd.peak_micros,
                f1b.peak_micros, fd.bubble_fraction, f1b.bubble_fraction);
  }

  std::printf("\ninterleaved virtual stages shrink the bubble (8 stages, "
              "M=8):\n  chunks: ");
  for (int v : {1, 2, 4, 7}) {
    std::printf("V=%d: %.3f  ", v,
                unit_timing(pp::Schedule::kInterleaved, 8, 8, v)
                    .bubble_fraction);
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
