// Checkpoints store every model in its serial full form, whatever layout
// wrote them: each parameter's ShardSpec both cuts the rank's shard out of
// the serial tensor at construction and puts it back on save. So a fresh
// model's checkpoint equals the serial model's bytes on every layout, and a
// checkpoint restores bit-exactly onto another layout or another seed.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "engine/checkpoint.hpp"
#include "models/classifier.hpp"
#include "models/gpt.hpp"
#include "models/transformer_classifier.hpp"
#include "models/vit.hpp"
#include "optim/optimizer.hpp"
#include "sim/cluster.hpp"
#include "tp_case_name.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;
namespace engine = ca::engine;
namespace optim = ca::optim;
namespace models = ca::models;

namespace {

/// Hands a model's parameter list to the checkpoint writer, which walks an
/// nn::Module.
class ParamList : public nn::Module {
 public:
  explicit ParamList(std::vector<nn::Parameter*> params)
      : params_(std::move(params)) {}
  t::Tensor forward(const t::Tensor& x) override { return x; }
  t::Tensor backward(const t::Tensor& dy) override { return dy; }
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    out.insert(out.end(), params_.begin(), params_.end());
  }

 private:
  std::vector<nn::Parameter*> params_;
};

/// A layout of `p` ranks.
struct Layout {
  core::TpMode mode = core::TpMode::kNone;
  int p = 1;
  int depth = 1;
  bool sequence = false;

  [[nodiscard]] core::Config config() const {
    core::Config cfg;
    if (sequence) {
      cfg.sequence_parallel_size = p;
    } else if (mode == core::TpMode::kNone) {
      cfg.data_parallel_size = p;
    } else {
      cfg.tensor_parallel_size = p;
      cfg.tensor_mode = mode;
      cfg.tensor_depth = depth;
    }
    return cfg;
  }
  [[nodiscard]] std::string name() const {
    return sequence ? "sequence_p" + std::to_string(p)
                    : tp_case_name(mode, p, depth);
  }
};

/// The checkpoint bytes of a fresh model (Adam, step 0).
template <class Model>
std::string fresh_bytes(const tp::Env& env, Model& m) {
  optim::Adam opt(m.parameters(), optim::Adam::Hyper{1e-2f});
  ParamList view(m.parameters());
  std::ostringstream os;
  engine::serialize_checkpoint(env, view, opt, 0, os);
  return os.str();
}

/// A one-rank context for the serial model's checkpoint writer (which needs
/// an env; nothing of the serial model is sharded).
struct SerialWorld {
  sim::Cluster cluster{sim::Topology::uniform(1, 100e9)};
  col::Backend backend{cluster};
  core::ParallelContext ctx{backend, core::Config{}};
};

template <class Model, class Cfg>
std::string serial_bytes(const Cfg& cfg) {
  SerialWorld w;
  Model m(cfg);
  return fresh_bytes(tp::Env{&w.ctx, 0}, m);
}

/// Every rank's fresh checkpoint of `Model` on `layout` equals the serial
/// model's bytes.
template <class Model, class Cfg>
void expect_fresh_equals_serial(const Cfg& cfg, const Layout& layout) {
  SCOPED_TRACE(layout.name());
  const std::string serial = serial_bytes<Model>(cfg);
  sim::Cluster cluster(sim::Topology::uniform(layout.p, 100e9));
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, layout.config());
  std::vector<std::string> bytes(static_cast<std::size_t>(layout.p));
  cluster.run([&](int g) {
    const tp::Env env{&ctx, g};
    Model m(env, cfg);
    bytes[static_cast<std::size_t>(g)] = fresh_bytes(env, m);
  });
  for (int g = 0; g < layout.p; ++g) {
    const std::string& b = bytes[static_cast<std::size_t>(g)];
    EXPECT_TRUE(b == serial) << "rank " << g << ": " << b.size()
                             << " bytes against the serial model's "
                             << serial.size();
  }
}

const Layout kNone{core::TpMode::kNone, 2};
const Layout k1d{core::TpMode::k1d, 2};
const Layout k2d{core::TpMode::k2d, 4};
const Layout k2p5d{core::TpMode::k2p5d, 8, 2};
const Layout k3d{core::TpMode::k3d, 8};
const Layout kSequence{core::TpMode::kNone, 2, 1, true};

models::TransformerClassifier::Config tc_config() {
  models::TransformerClassifier::Config cfg;
  cfg.patches = 3;
  cfg.patch_dim = 8;
  cfg.hidden = 16;
  cfg.heads = 4;
  cfg.ffn = 32;
  cfg.blocks = 2;
  cfg.classes = 8;
  cfg.seed = 21;
  return cfg;
}

models::GptModel::Config gpt_config(std::uint64_t seed) {
  models::GptModel::Config cfg;
  cfg.vocab = 64;
  cfg.seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn = 32;
  cfg.layers = 2;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

TEST(ModelCheckpoint, ClassifierFreshEqualsSerial) {
  const models::Classifier::Config cfg{16, 16, 8, 1, 5};
  for (const Layout& l : {kNone, k1d, k2d, k2p5d, k3d}) {
    expect_fresh_equals_serial<models::Classifier>(cfg, l);
  }
}

// The layouts other than 3D; TransformerClassifierFreshEqualsSerial3d covers
// the cube.
TEST(ModelCheckpoint, TransformerClassifierFreshEqualsSerialExcept3d) {
  for (const Layout& l : {kNone, k1d, k2d, k2p5d}) {
    expect_fresh_equals_serial<models::TransformerClassifier>(tc_config(), l);
  }
}

// Attention3D's fused QKV weight is the serial [q|k|v] matrix under a
// three-section spec, so the cube writes the serial bytes too.
TEST(ModelCheckpoint, TransformerClassifierFreshEqualsSerial3d) {
  expect_fresh_equals_serial<models::TransformerClassifier>(tc_config(), k3d);
}

TEST(ModelCheckpoint, VitFreshEqualsSerial) {
  const models::VitClassifier::Config cfg{};
  for (const Layout& l : {k1d, kSequence}) {
    expect_fresh_equals_serial<models::VitClassifier>(cfg, l);
  }
}

TEST(ModelCheckpoint, GptFreshEqualsSerial) {
  expect_fresh_equals_serial<models::GptModel>(gpt_config(3), k1d);
}

namespace {

/// One Adam step of a GPT model on a fixed token batch.
void gpt_step(models::GptModel& m, optim::Adam& opt) {
  const auto cfg = gpt_config(0);
  ca::data::SyntheticTokens stream(cfg.vocab, 7);
  opt.zero_grad();
  m.train_batch(stream.tokens(0, 2 * cfg.seq), 2);
  opt.step();
}

bool bit_equal(const t::Tensor& a, const t::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

}  // namespace

TEST(ModelCheckpoint, GptRoundTripsOnEveryRankAndRelaysOntoSerial) {
  // A 1D p=2 GPT trains one Adam step and saves. A model built from another
  // seed restores the root's bytes: every parameter bit-equals the trained
  // one on every rank. The same bytes load onto the serial GPT, which then
  // writes them back unchanged.
  constexpr int p = 2;
  sim::Cluster cluster(sim::Topology::uniform(p, 100e9));
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, k1d.config());
  std::vector<std::string> bytes(p);
  std::vector<std::vector<std::string>> mismatched(p);
  cluster.run([&](int g) {
    const tp::Env env{&ctx, g};
    const auto gi = static_cast<std::size_t>(g);
    models::GptModel trained(env, gpt_config(3));
    optim::Adam opt(trained.parameters(), optim::Adam::Hyper{1e-2f});
    gpt_step(trained, opt);
    {
      ParamList view(trained.parameters());
      std::ostringstream os;
      engine::serialize_checkpoint(env, view, opt, 1, os);
      bytes[gi] = os.str();
    }
    // every rank must be done writing before anyone reads the root's bytes
    ctx.tensor_group(g).barrier(g);
    models::GptModel restored(env, gpt_config(4));
    optim::Adam ropt(restored.parameters(), optim::Adam::Hyper{1e-2f});
    ParamList view(restored.parameters());
    std::istringstream is(bytes[0]);
    EXPECT_EQ(engine::deserialize_checkpoint(env, view, ropt, is), 1);
    const auto want = trained.parameters();
    const auto got = restored.parameters();
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!bit_equal(want[i]->value, got[i]->value)) {
        mismatched[gi].push_back(want[i]->name);
      }
    }
  });
  for (int g = 0; g < p; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    EXPECT_TRUE(bytes[gi] == bytes[0]) << "rank " << g;
    EXPECT_TRUE(mismatched[gi].empty())
        << "rank " << g << ": " << mismatched[gi].size()
        << " parameters differ after the round trip, first '"
        << mismatched[gi].front() << "'";
  }

  SerialWorld w;
  const tp::Env env{&w.ctx, 0};
  models::GptModel serial(gpt_config(4));
  optim::Adam opt(serial.parameters(), optim::Adam::Hyper{1e-2f});
  ParamList view(serial.parameters());
  std::istringstream is(bytes[0]);
  ASSERT_NO_THROW(engine::deserialize_checkpoint(env, view, opt, is));
  std::ostringstream os;
  engine::serialize_checkpoint(env, view, opt, 1, os);
  EXPECT_TRUE(os.str() == bytes[0]);
}
