// Figure 13: training throughput of BERT-Base with sequence parallelism vs
// 1D tensor parallelism on System III.
//   (a) parallel size 4/8/12 (1D: 4/6/12 due to the attention-head
//       divisibility restriction), each at its max batch for seq 512;
//   (b) parallel size fixed at 4, scaled with 1..4 pipeline stages.

#include "bench_common.hpp"
#include "collective/cost.hpp"
#include "pp/pipeline.hpp"
#include "sp/memory_model.hpp"
#include "sp/sim_bert.hpp"
#include "tp/sim_transformer.hpp"

using namespace ca;

namespace {

/// System III fragment with `nodes` x `per_node` A100-40GB.
sim::Topology sys3(int nodes, int per_node) {
  const int n = nodes * per_node;
  std::vector<double> m(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j)
        m[static_cast<std::size_t>(i) * n + j] =
            (i / per_node == j / per_node) ? 150.0e9 : 25.0e9;
  return sim::Topology("System III fragment", sim::a100_40gb(), per_node,
                       std::move(m), 1.5e-5);
}

/// Fragment for `p` total GPUs: one node up to 4, then 2x3 (the paper's
/// 6-GPU layout), then p/4 full nodes.
sim::Topology sys3_for(int p) {
  if (p <= 4) return sys3(1, p);
  if (p == 6) return sys3(2, 3);
  return sys3(p / 4, 4);
}

double sp_step_time(int p, sp::BertShape shape) {
  bench::World w(sys3_for(p), [&] {
    core::Config cfg;
    cfg.sequence_parallel_size = p;
    return cfg;
  }());
  w.cluster.run([&](int g) {
    sp::SimBertSP model(w.env(g), shape);
    model.train_step();
  });
  return w.cluster.max_clock();
}

double td_step_time(int p, sp::BertShape shape) {
  bench::World w(sys3_for(p), bench::tp_config(core::TpMode::k1d, p));
  tp::TransformerShape ts;
  ts.layers = shape.layers;
  ts.hidden = shape.hidden;
  ts.heads = shape.heads;
  ts.batch = shape.batch;
  ts.seq = shape.seq;
  w.cluster.run([&](int g) {
    tp::SimTransformer model(w.env(g), core::TpMode::k1d, ts);
    model.train_step();
  });
  return w.cluster.max_clock();
}

void figure_13a() {
  bench::header("Figure 13a: BERT-Base throughput, seq 512, max batch "
                "(samples/sec)");
  std::printf("%-10s %-26s %-26s %-10s\n", "GPUs", "Sequence Parallelism",
              "1D Tensor Parallelism", "SP/1D");
  const std::int64_t cap = 40LL << 30;
  const int sp_gpus[] = {4, 8, 12};
  const int td_gpus[] = {4, 6, 12};
  for (int i = 0; i < 3; ++i) {
    sp::BertShape s;
    s.seq = 512;
    s.batch = sp::max_batch(sp::bert_peak_sp, s, sp_gpus[i], cap);
    const double tsp = sp_step_time(sp_gpus[i], s);
    const double thr_sp = static_cast<double>(s.batch) / tsp;

    sp::BertShape s1;
    s1.seq = 512;
    s1.batch = sp::max_batch(sp::bert_peak_1d, s1, td_gpus[i], cap);
    const double t1d = td_step_time(td_gpus[i], s1);
    const double thr_1d = static_cast<double>(s1.batch) / t1d;

    std::printf("%d/%-8d %6.0f (batch %-5lld)       %6.0f (batch %-5lld)"
                "       %.2fx\n",
                sp_gpus[i], td_gpus[i], thr_sp, static_cast<long long>(s.batch),
                thr_1d, static_cast<long long>(s1.batch), thr_sp / thr_1d);
  }
  std::printf("(paper: SP up to 1.43x faster)\n");
}

void figure_13b() {
  bench::header("Figure 13b: + pipeline parallelism (parallel size 4, "
                "1-4 stages, samples/sec)");
  std::printf("%-8s %-20s %-20s %-10s\n", "stages", "SP + pipeline",
              "1D + pipeline", "SP/1D");

  const std::int64_t cap = 40LL << 30;
  const int micros = 8;
  for (int stages : {1, 2, 3, 4}) {
    // each stage = one 4-GPU node running 12/stages layers; batch fixed at
    // the 1-stage max so rows are comparable, split into micro-batches
    sp::BertShape s;
    s.seq = 512;
    s.batch = sp::max_batch(sp::bert_peak_sp, s, 4, cap) / micros;
    s.layers = 12 / stages;

    const double sp_micro = sp_step_time(4, s);
    const double td_micro = td_step_time(4, s);

    // pipeline boundary per micro-batch: SP forwards its sub-sequence shard;
    // 1D gathers the split activation and re-splits on the next stage.
    const std::int64_t bsh = s.batch * s.seq * s.hidden * 2;
    auto topo = sys3(stages == 1 ? 1 : stages, 4);
    const double link = stages == 1 ? 0.0 : 25.0e9;  // inter-node IB
    const double sp_boundary =
        stages == 1 ? 0.0
                    : topo.latency() + static_cast<double>(bsh / 4) / link;
    std::vector<int> group{0, 1, 2, 3};
    const double td_boundary =
        stages == 1
            ? 0.0
            : sp_boundary +
                  collective::collective_time(collective::Op::kAllGather,
                                              collective::Algo::kChunked, topo,
                                              group, bsh);

    // fill-drain: (micros + stages - 1) sequential micro-slots, fwd+bwd
    const auto slots = static_cast<double>(micros + stages - 1);
    const double sp_step = slots * (sp_micro + 2.0 * sp_boundary);
    const double td_step = slots * (td_micro + 2.0 * td_boundary);

    const double total_batch = static_cast<double>(s.batch * micros);
    std::printf("%-8d %-20.0f %-20.0f %.2fx\n", stages, total_batch / sp_step,
                total_batch / td_step,
                (total_batch / sp_step) / (total_batch / td_step));
  }
  std::printf("(paper: SP trains 1.55x faster than 1D at 4 pipeline stages — "
              "SP needs no activation gather between stages)\n");
}

}  // namespace

int main() {
  figure_13a();
  figure_13b();
  return 0;
}
