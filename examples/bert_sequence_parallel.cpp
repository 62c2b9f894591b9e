// Sequence parallelism on a BERT-style model: split a long sequence over 4
// ranks with Ring Self-Attention, show arithmetic equivalence with the
// serial model, then print the Figure 12-style max-batch/max-seq advantage.
//
//   build/examples/bert_sequence_parallel

#include <cstdio>

#include "collective/backend.hpp"
#include "core/context.hpp"
#include "models/vit.hpp"
#include "sp/memory_model.hpp"
#include "sim/cluster.hpp"
#include "tensor/ops.hpp"

using namespace ca;

int main() {
  // a long-sequence encoder: 32 tokens over 4 ranks = 8 tokens each
  models::VitClassifier::Config mc;
  mc.patches = 32;  // sequence length
  mc.patch_dim = 16;
  mc.hidden = 32;
  mc.heads = 4;
  mc.ffn = 64;
  mc.layers = 2;
  mc.classes = 4;
  mc.seed = 5;

  auto x = tensor::randn(tensor::Shape{4, mc.patches, mc.patch_dim}, 6);
  std::vector<std::int64_t> labels{0, 1, 2, 3};

  models::VitClassifier serial(mc);
  const float serial_loss = serial.train_batch(x, labels);

  core::Config config;
  config.sequence_parallel_size = 4;
  sim::Cluster cluster(sim::Topology::system_iii(1));  // one 4-GPU node
  collective::Backend backend(cluster);
  core::ParallelContext ctx(backend, config);

  std::vector<float> sp_loss(4);
  cluster.run([&](int rank) {
    tp::Env env{&ctx, rank};
    models::VitClassifier model(env, mc);
    sp_loss[static_cast<std::size_t>(rank)] = model.train_batch(x, labels);
  });

  std::printf("Ring Self-Attention encoder, seq %lld over 4 ranks:\n",
              static_cast<long long>(mc.patches));
  std::printf("  serial loss %.6f | sequence-parallel loss %.6f (diff %.2e)\n",
              serial_loss, sp_loss[0],
              std::abs(serial_loss - sp_loss[0]));

  // ---- why sequence parallelism exists: the memory wall (Figure 12) ------------
  std::printf("\nBERT-Base on A100-40GB, what fits before OOM:\n");
  std::printf("  %-6s %-22s %-22s\n", "GPUs", "max batch (seq=512)",
              "max seq (batch=64)");
  for (int p : {4, 8, 12}) {
    sp::BertShape bs;
    bs.seq = 512;
    const auto sp_batch = sp::max_batch(sp::bert_peak_sp, bs, p, 40LL << 30);
    const auto td_batch = sp::max_batch(sp::bert_peak_1d, bs, p, 40LL << 30);
    sp::BertShape ss;
    ss.batch = 64;
    const auto sp_seq = sp::max_seq(sp::bert_peak_sp, ss, p, 40LL << 30);
    const auto td_seq = sp::max_seq(sp::bert_peak_1d, ss, p, 40LL << 30);
    std::printf("  %-6d SP %5lld vs 1D %5lld    SP %6lld vs 1D %6lld\n", p,
                static_cast<long long>(sp_batch), static_cast<long long>(td_batch),
                static_cast<long long>(sp_seq), static_cast<long long>(td_seq));
  }
  return 0;
}
