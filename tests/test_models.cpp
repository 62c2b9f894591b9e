// Model-zoo tests: named paper configs, the GPT language model (serial and
// 1D-tensor-parallel), and ViT parameter accounting.

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "models/configs.hpp"
#include "models/gpt.hpp"
#include "models/vit.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;
namespace models = ca::models;

TEST(Configs, PaperModelSizes) {
  // the paper's "GPT-2 of 10 billion parameters" and "OPT of 13 billion"
  EXPECT_NEAR(static_cast<double>(models::gpt2_10b().params()) / 1e9, 10.0, 0.5);
  EXPECT_NEAR(static_cast<double>(models::opt_13b().params()) / 1e9, 12.6, 0.5);
  // BERT-Base is ~85M transformer-layer params (110M with embeddings)
  EXPECT_NEAR(static_cast<double>(models::bert_base().params()) / 1e6, 85.0, 5.0);
  EXPECT_EQ(models::vit_convergence().heads, 6);
  EXPECT_EQ(models::vit_32l_4096h().hidden, 4096);
}

namespace {
models::GptModel::Config tiny_gpt() {
  models::GptModel::Config cfg;
  cfg.vocab = 64;
  cfg.seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn = 32;
  cfg.layers = 2;
  cfg.seed = 3;
  return cfg;
}
}  // namespace

TEST(Gpt, ParamCountMatchesArchitecture) {
  auto cfg = tiny_gpt();
  models::GptModel m(cfg);
  const std::int64_t h = cfg.hidden, f = cfg.ffn, v = cfg.vocab;
  const std::int64_t per_block =
      (h * 3 * h + 3 * h) + (h * h + h) + (h * f + f + f * h + h) + 4 * h;
  const std::int64_t expect = v * h + cfg.seq * h +  // embeddings
                              cfg.layers * per_block + 2 * h +  // final LN
                              h * v + v;                        // head
  EXPECT_EQ(m.num_params(), expect);
}

TEST(Gpt, LearnsSyntheticTokenStream) {
  auto cfg = tiny_gpt();
  models::GptModel m(cfg);
  ca::data::SyntheticTokens stream(cfg.vocab, 5);
  const std::int64_t batch = 4;

  float first = 0.0f, last = 0.0f;
  for (int s = 0; s < 30; ++s) {
    auto toks = stream.tokens(0, batch * cfg.seq);  // same batch: overfit it
    for (nn::Parameter* p : m.parameters()) p->grad.fill(0.0f);
    const float loss = m.train_batch(toks, batch);
    for (nn::Parameter* p : m.parameters())
      t::axpy_(p->value, -0.05f, p->grad);
    if (s == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, 0.7f * first);
}

TEST(Gpt, EvalLossMatchesTrainLossBeforeStep) {
  auto cfg = tiny_gpt();
  models::GptModel m(cfg);
  ca::data::SyntheticTokens stream(cfg.vocab, 6);
  auto toks = stream.tokens(0, 2 * cfg.seq);
  const float eval = m.eval_loss(toks, 2);
  const float train = m.train_batch(toks, 2);
  EXPECT_FLOAT_EQ(eval, train);
}

TEST(Gpt, TensorParallelMatchesSerial) {
  auto cfg = tiny_gpt();
  ca::data::SyntheticTokens stream(cfg.vocab, 7);
  auto toks = stream.tokens(0, 2 * cfg.seq);

  models::GptModel serial(cfg);
  const float ref = serial.train_batch(toks, 2);

  core::Config pcfg;
  pcfg.tensor_parallel_size = 2;
  pcfg.tensor_mode = core::TpMode::k1d;
  sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, pcfg);
  ctx.set_comm_dtype(t::Dtype::kF32);  // serial-equivalence test: fp32 wire

  std::vector<float> losses(2);
  std::vector<t::Tensor> emb_grad(2), pos_grad(2);
  cluster.run([&](int g) {
    models::GptModel m(tp::Env{&ctx, g}, cfg);
    losses[static_cast<std::size_t>(g)] = m.train_batch(toks, 2);
    emb_grad[static_cast<std::size_t>(g)] = m.parameters()[0]->grad.clone();
    pos_grad[static_cast<std::size_t>(g)] = m.parameters()[1]->grad.clone();
  });
  EXPECT_NEAR(losses[0], ref, 1e-4f);
  EXPECT_NEAR(losses[1], ref, 1e-4f);
  // the token embedding is vocabulary-parallel: each rank holds the grads of
  // its vocab rows (= the serial gradient's row chunk)
  for (int g = 0; g < 2; ++g) {
    EXPECT_TRUE(t::allclose(emb_grad[static_cast<std::size_t>(g)],
                            t::chunk(serial.parameters()[0]->grad, 0, 2, g),
                            1e-3f))
        << g;
  }
  // position embeddings are replicated; their grads equal the serial ones
  EXPECT_TRUE(t::allclose(pos_grad[0], serial.parameters()[1]->grad, 1e-3f));
}

TEST(Vit, ParamCountIndependentOfMode) {
  models::VitClassifier::Config vc;
  models::VitClassifier serial(vc);

  core::Config pcfg;
  pcfg.tensor_parallel_size = 2;
  pcfg.tensor_mode = core::TpMode::k1d;
  sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, pcfg);
  ctx.set_comm_dtype(t::Dtype::kF32);  // serial-equivalence test: fp32 wire

  std::vector<std::int64_t> shard_params(2);
  cluster.run([&](int g) {
    models::VitClassifier m(tp::Env{&ctx, g}, vc);
    std::int64_t n = 0;
    for (nn::Parameter* p : m.parameters()) n += p->numel();
    shard_params[static_cast<std::size_t>(g)] = n;
  });
  std::int64_t serial_n = 0;
  for (nn::Parameter* p : serial.parameters()) serial_n += p->numel();
  // sharded blocks hold fewer parameters per rank than the serial model
  EXPECT_LT(shard_params[0], serial_n);
  EXPECT_EQ(shard_params[0], shard_params[1]);
}

// ---- TransformerClassifier: the strongest Figure-7 form ----------------------------

#include "models/transformer_classifier.hpp"
#include "tp_case_name.hpp"

namespace {

models::TransformerClassifier::Config tc_config() {
  models::TransformerClassifier::Config cfg;
  cfg.patches = 4;
  cfg.patch_dim = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn = 32;
  cfg.blocks = 1;
  cfg.classes = 8;
  cfg.seed = 9;
  return cfg;
}

float serial_tc_step(const t::Tensor& x, std::span<const std::int64_t> y) {
  models::TransformerClassifier m(tc_config());
  return m.train_batch(x, y);
}

}  // namespace

struct TcCase {
  core::TpMode mode;
  int size;
  int depth;
};

// Names each case in test listings (e.g. "2d_p4_d1") instead of a byte dump.
void PrintTo(const TcCase& c, std::ostream* os) {
  *os << tp_case_name(c.mode, c.size, c.depth);
}

class TransformerClassifierModes : public ::testing::TestWithParam<TcCase> {};

TEST_P(TransformerClassifierModes, LossMatchesSerial) {
  const auto c = GetParam();
  auto cfg = tc_config();
  auto x = t::randn(t::Shape{8, cfg.patches, cfg.patch_dim}, 10);
  std::vector<std::int64_t> y{0, 1, 2, 3, 4, 5, 6, 7};
  const float ref = serial_tc_step(x, y);

  core::Config pcfg;
  pcfg.tensor_parallel_size = c.size;
  pcfg.tensor_mode = c.mode;
  pcfg.tensor_depth = c.depth;
  sim::Cluster cluster(sim::Topology::uniform(c.size, 100e9));
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, pcfg);
  ctx.set_comm_dtype(t::Dtype::kF32);  // serial-equivalence test: fp32 wire

  std::vector<float> losses(static_cast<std::size_t>(c.size));
  cluster.run([&](int g) {
    models::TransformerClassifier m(tp::Env{&ctx, g}, cfg);
    losses[static_cast<std::size_t>(g)] = m.train_batch(x, y);
  });
  for (int g = 0; g < c.size; ++g)
    EXPECT_NEAR(losses[static_cast<std::size_t>(g)], ref, 2e-4f)
        << "rank " << g << " mode " << core::to_string(c.mode);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, TransformerClassifierModes,
    ::testing::Values(TcCase{core::TpMode::k1d, 2, 1},
                      TcCase{core::TpMode::k2d, 4, 1},
                      TcCase{core::TpMode::k2p5d, 8, 2},
                      TcCase{core::TpMode::k3d, 8, 1}));

TEST(TransformerClassifierModes, TrainsToLowerLoss) {
  auto cfg = tc_config();
  models::TransformerClassifier m(cfg);
  ca::data::SyntheticClassification ds(1024, cfg.patches * cfg.patch_dim, 8, 19);
  float first = 0.0f, last = 0.0f;
  for (int s = 0; s < 20; ++s) {
    auto flat = ds.batch_features(s * 8, 8);
    auto x = flat.reshape(t::Shape{8, cfg.patches, cfg.patch_dim});
    auto y = ds.batch_labels(s * 8, 8);
    for (nn::Parameter* p : m.parameters()) p->grad.fill(0.0f);
    const float loss = m.train_batch(x, y);
    for (nn::Parameter* p : m.parameters()) t::axpy_(p->value, -0.05f, p->grad);
    if (s == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

// ---- every model reads its layout from the context ------------------------------------

#include "models/classifier.hpp"

namespace {

/// What a model constructor throws on rank 0 of `cfg`'s context ("" when it
/// builds).
template <class Make>
std::string rejection(const core::Config& cfg, Make make) {
  sim::Cluster cluster(sim::Topology::uniform(cfg.world_size(), 100e9));
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, cfg);
  try {
    make(tp::Env{&ctx, 0});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(ModelShell, RejectsLayoutsItDoesNotBuild) {
  core::Config seq;
  seq.sequence_parallel_size = 2;
  seq.tensor_mode = core::TpMode::k1d;  // sequence wins over the tensor mode
  core::Config grid;
  grid.tensor_parallel_size = 4;
  grid.tensor_mode = core::TpMode::k2d;
  EXPECT_EQ(rejection(seq,
                      [](const tp::Env& env) {
                        models::Classifier m(env, {8, 16, 8, 1, 1});
                      }),
            "Classifier does not build the sequence layout");
  EXPECT_EQ(rejection(seq,
                      [](const tp::Env& env) {
                        models::TransformerClassifier m(env, tc_config());
                      }),
            "TransformerClassifier does not build the sequence layout");
  EXPECT_EQ(rejection(grid,
                      [](const tp::Env& env) {
                        models::VitClassifier m(env, {});
                      }),
            "VitClassifier does not build the 2d layout");
  EXPECT_EQ(rejection(grid,
                      [](const tp::Env& env) {
                        models::GptModel m(env, tiny_gpt());
                      }),
            "GptModel does not build the 2d layout");
}


TEST(Gpt, VocabParallelScalesToFourRanks) {
  auto cfg = tiny_gpt();  // vocab 64 % 4 == 0
  cfg.heads = 4;          // 1D attention needs heads % p == 0
  ca::data::SyntheticTokens stream(cfg.vocab, 8);
  auto toks = stream.tokens(0, 2 * cfg.seq);

  models::GptModel serial(cfg);
  const float ref = serial.train_batch(toks, 2);

  core::Config pcfg;
  pcfg.tensor_parallel_size = 4;
  pcfg.tensor_mode = core::TpMode::k1d;
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, pcfg);
  ctx.set_comm_dtype(t::Dtype::kF32);  // serial-equivalence test: fp32 wire

  std::vector<float> losses(4);
  cluster.run([&](int g) {
    models::GptModel m(tp::Env{&ctx, g}, cfg);
    losses[static_cast<std::size_t>(g)] = m.train_batch(toks, 2);
    // a second step after zeroing grads must also work (state is reusable)
    for (nn::Parameter* p : m.parameters()) p->grad.fill(0.0f);
    m.train_batch(toks, 2);
  });
  for (int g = 0; g < 4; ++g)
    EXPECT_NEAR(losses[static_cast<std::size_t>(g)], ref, 1e-4f) << g;
}

// ---- pipeline stage partitioning --------------------------------------------------

#include "models/pp_stages.hpp"

TEST(PpStages, BalancedContiguousPartition) {
  // 10 layers over 4 stages: 3,3,2,2 — contiguous and exhaustive
  const auto p = models::partition_layers(10, 4);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0].begin, 0);
  EXPECT_EQ(p[0].size(), 3);
  EXPECT_EQ(p[1].size(), 3);
  EXPECT_EQ(p[2].size(), 2);
  EXPECT_EQ(p[3].size(), 2);
  for (std::size_t i = 1; i < p.size(); ++i)
    EXPECT_EQ(p[i].begin, p[i - 1].end);
  EXPECT_EQ(p.back().end, 10);
}

TEST(PpStages, InterleavedChunksAlternateRanks) {
  // 9 layers, 2 stages x 2 chunks: virtual stages get 3,2,2,2 layers and
  // rank s owns virtual stages s and 2 + s
  const auto p = models::partition_layers(9, 2, 2);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0].size(), 3);
  EXPECT_EQ(p[1].size(), 2);
  const auto r0 = models::rank_stage_ranges(p, 2, 0);
  const auto r1 = models::rank_stage_ranges(p, 2, 1);
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0].begin, p[0].begin);
  EXPECT_EQ(r0[1].begin, p[2].begin);  // chunk 1 = virtual stage 2
  EXPECT_EQ(r1[0].begin, p[1].begin);
  EXPECT_EQ(r1[1].begin, p[3].begin);
  // the union of both ranks' chunk ranges covers every layer exactly once
  int covered = 0;
  for (const auto& r : r0) covered += r.size();
  for (const auto& r : r1) covered += r.size();
  EXPECT_EQ(covered, 9);
}
