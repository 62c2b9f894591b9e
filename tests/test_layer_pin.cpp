// Exact pins of the Transformer layer under every data layout:
// TransformerClassifier trained for three SGD steps serially ("none"), under
// 1D (p=2), 2.5D (d=2, p=8) and 3D (p=8) tensor parallelism, and
// VitClassifier under sequence parallelism (p=2), each on the fp32 and the
// bf16 wire. The same harness pins every other model shell (ModelPin): the
// MLP Classifier under none, 1D, 2.5D and 3D, VitClassifier under none and
// 1D, and GptModel under none and 1D. Every observable is pinned as a
// literal: per-step losses (every rank must agree bit for bit), an FNV-1a
// hash of every gradient bit of every rank and step, per-rank simulated
// clocks, bytes sent, MemoryTracker peaks and the parameter names in
// collect_parameters order. Both the thread-per-rank oracle and the fiber
// backend must reproduce them.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "collective/backend.hpp"
#include "core/context.hpp"
#include "data/synthetic.hpp"
#include "models/classifier.hpp"
#include "models/gpt.hpp"
#include "models/transformer_classifier.hpp"
#include "models/vit.hpp"
#include "sim/cluster.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace models = ca::models;
namespace tp = ca::tp;

namespace {

constexpr int kSteps = 3;
constexpr float kLr = 0.05f;
constexpr std::int64_t kBatch = 8;

enum class Layout { kNone, k1d, k2p5d, k3d, kSequence };

/// The model trained: the Transformer classifier (ViT under sequence
/// parallelism, as LayerPin pins it), or one of the other model shells.
enum class Model { kTransformer, kClassifier, kVit, kGpt };

struct PinRun {
  std::vector<float> losses;
  std::uint64_t grad_hash = 0;
  std::vector<double> clocks;
  std::vector<std::int64_t> bytes;
  std::vector<std::int64_t> peaks;
  std::string names;  ///< parameter names, comma-joined, in order
};

class Fnv1a {
 public:
  void add(std::uint32_t word) {
    for (int i = 0; i < 4; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

core::Config config_of(Layout layout) {
  core::Config cfg;
  switch (layout) {
    case Layout::kNone:
      break;
    case Layout::k1d:
      cfg.tensor_parallel_size = 2;
      cfg.tensor_mode = core::TpMode::k1d;
      break;
    case Layout::k2p5d:
      cfg.tensor_parallel_size = 8;
      cfg.tensor_mode = core::TpMode::k2p5d;
      cfg.tensor_depth = 2;
      break;
    case Layout::k3d:
      cfg.tensor_parallel_size = 8;
      cfg.tensor_mode = core::TpMode::k3d;
      break;
    case Layout::kSequence:
      cfg.sequence_parallel_size = 2;
      break;
  }
  return cfg;
}

PinRun run(Model model, Layout layout, t::Dtype wire,
           sim::SimBackend backend) {
  const core::Config cfg = config_of(layout);
  const int p = cfg.world_size();
  sim::Cluster cluster(sim::Topology::uniform(p, 100e9));
  cluster.set_backend(backend);
  col::Backend be(cluster);
  core::ParallelContext ctx(be, cfg);
  ctx.set_comm_dtype(wire);

  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < kBatch; ++i) labels.push_back(i % 8);

  std::vector<std::vector<float>> losses(static_cast<std::size_t>(p));
  std::vector<std::vector<std::uint32_t>> grad_bits(
      static_cast<std::size_t>(p));
  std::vector<std::string> names(static_cast<std::size_t>(p));
  cluster.run([&](int g) {
    const tp::Env env{&ctx, g};
    const auto gi = static_cast<std::size_t>(g);
    // step(m, s) runs train_batch on step s's batch and returns the loss
    auto train = [&](auto& m, auto&& step) {
      for (nn::Parameter* prm : m.parameters()) names[gi] += prm->name + ",";
      for (int s = 0; s < kSteps; ++s) {
        for (nn::Parameter* prm : m.parameters()) prm->grad.fill(0.0f);
        losses[gi].push_back(step(m, s));
        for (nn::Parameter* prm : m.parameters()) {
          for (float v : prm->grad.data()) {
            grad_bits[gi].push_back(std::bit_cast<std::uint32_t>(v));
          }
          t::axpy_(prm->value, -kLr, prm->grad);
        }
      }
    };
    auto on_randn = [&](t::Shape shape) {
      return [&labels, shape](auto& m, int s) {
        return m.train_batch(
            t::randn(shape, 300 + static_cast<std::uint64_t>(s)), labels);
      };
    };
    if (model == Model::kClassifier) {
      models::Classifier::Config mc;
      mc.features = 8;
      mc.hidden = 16;
      mc.classes = 8;
      mc.blocks = 2;
      mc.seed = 23;
      models::Classifier m(env, mc);
      train(m, on_randn(t::Shape{kBatch, mc.features}));
    } else if (model == Model::kGpt) {
      models::GptModel::Config mc;
      mc.vocab = 32;
      mc.seq = 4;
      mc.hidden = 16;
      mc.heads = 2;
      mc.ffn = 32;
      mc.layers = 2;
      mc.seed = 31;
      const ca::data::SyntheticTokens stream(mc.vocab, 37);
      models::GptModel m(env, mc);
      train(m, [&](auto& gm, int s) {
        return gm.train_batch(
            stream.tokens(s * kBatch * mc.seq, kBatch * mc.seq), kBatch);
      });
    } else if (model == Model::kVit || layout == Layout::kSequence) {
      models::VitClassifier::Config mc;
      mc.patches = 4;
      mc.patch_dim = 8;
      mc.hidden = 16;
      mc.heads = 2;
      mc.ffn = 32;
      mc.layers = 2;
      mc.classes = 8;
      mc.seed = 29;
      models::VitClassifier m(env, mc);
      train(m, on_randn(t::Shape{kBatch, mc.patches, mc.patch_dim}));
    } else {
      models::TransformerClassifier::Config mc;
      mc.patches = 3;
      mc.patch_dim = 8;
      mc.hidden = 16;
      mc.heads = 4;
      mc.ffn = 32;
      mc.blocks = 2;
      mc.classes = 8;
      mc.seed = 19;
      models::TransformerClassifier m(env, mc);
      train(m, on_randn(t::Shape{kBatch, mc.patches, mc.patch_dim}));
    }
  });

  PinRun out;
  out.losses = losses[0];
  out.names = names[0];
  Fnv1a h;
  for (int g = 0; g < p; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    EXPECT_EQ(names[gi], out.names) << "rank " << g;
    EXPECT_EQ(losses[gi].size(), out.losses.size()) << "rank " << g;
    for (std::size_t s = 0; s < losses[gi].size() && s < out.losses.size();
         ++s) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(losses[gi][s]),
                std::bit_cast<std::uint32_t>(out.losses[s]))
          << "rank " << g << " step " << s;
    }
    for (std::uint32_t w : grad_bits[gi]) h.add(w);
    out.clocks.push_back(cluster.device(g).clock());
    out.bytes.push_back(cluster.device(g).bytes_sent());
    out.peaks.push_back(cluster.device(g).mem().peak());
  }
  out.grad_hash = h.value();
  return out;
}

/// Prints a run as the literal its pin would be (shown on failure).
std::string literal(const PinRun& r) {
  std::string s = "{{";
  char buf[64];
  for (float v : r.losses) {
    std::snprintf(buf, sizeof buf, "%af, ", static_cast<double>(v));
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "}, 0x%llxull, {",
                static_cast<unsigned long long>(r.grad_hash));
  s += buf;
  for (double v : r.clocks) {
    std::snprintf(buf, sizeof buf, "%a, ", v);
    s += buf;
  }
  s += "}, {";
  for (std::int64_t v : r.bytes) s += std::to_string(v) + ", ";
  s += "}, {";
  for (std::int64_t v : r.peaks) s += std::to_string(v) + ", ";
  return s + "}, \"" + r.names + "\"}";
}

void check(Layout layout, t::Dtype wire, const PinRun& want,
           Model model = Model::kTransformer) {
  for (const sim::SimBackend be :
       {sim::SimBackend::kThreads, sim::SimBackend::kTasks}) {
    SCOPED_TRACE(be == sim::SimBackend::kThreads ? "threads" : "tasks");
    const PinRun got = run(model, layout, wire, be);
    SCOPED_TRACE("got " + literal(got));
    ASSERT_EQ(got.losses.size(), want.losses.size());
    for (std::size_t s = 0; s < want.losses.size(); ++s) {
      EXPECT_EQ(got.losses[s], want.losses[s]) << "step " << s;
    }
    EXPECT_EQ(got.grad_hash, want.grad_hash);
    EXPECT_EQ(got.clocks, want.clocks);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.peaks, want.peaks);
    EXPECT_EQ(got.names, want.names);
  }
}

/// Clocks, bytes and peaks given as one value for every rank.
PinRun uniform(std::vector<float> losses, std::uint64_t grad_hash, int p,
               double clock, std::int64_t bytes, std::int64_t peak,
               std::string names) {
  const auto n = static_cast<std::size_t>(p);
  return PinRun{std::move(losses),
                grad_hash,
                std::vector<double>(n, clock),
                std::vector<std::int64_t>(n, bytes),
                std::vector<std::int64_t>(n, peak),
                std::move(names)};
}

/// The parameter names of one pre-LN block, in collect_parameters order.
std::string block_names(const std::string& b) {
  std::string s;
  for (const char* leaf :
       {"ln1.gamma", "ln1.beta", "attn.qkv.weight", "attn.qkv.bias",
        "attn.proj.weight", "attn.proj.bias", "ln2.gamma", "ln2.beta",
        "mlp.fc1.weight", "mlp.fc1.bias", "mlp.fc2.weight", "mlp.fc2.bias"}) {
    s += b + "." + leaf + ",";
  }
  return s;
}

const std::string kClassifierNames = "embed.weight,embed.bias," +
                                     block_names("block0") +
                                     block_names("block1") +
                                     "head.weight,head.bias,";
const std::string kVitNames =
    "embed.weight,embed.bias," + block_names("block0") +
    block_names("block1") + "final_ln.gamma,final_ln.beta,head.weight,head.bias,";

// Recorded from the per-layout Transformer layers (one attention, LayerNorm
// and residual block per layout) that preceded the shared ones.
const PinRun kNoneFp32 =
    uniform({0x1.e79bp+1f, 0x1.5e2186p+1f, 0x1.0a9284p+1f},
            0xd6e0f0ac99eb6447ull, 1, 0x0p+0, 0, 0, kClassifierNames);
const PinRun kNoneBf16 = kNoneFp32;  // one rank: no wire traffic
const PinRun k1dFp32 =
    uniform({0x1.e79afep+1f, 0x1.5e2184p+1f, 0x1.0a9284p+1f},
            0x30e90664d7d40a9cull, 2, 0x1.f81b13234dd54p-13, 36864, 41728,
            kClassifierNames);
const PinRun k1dBf16 =
    uniform({0x1.e77e64p+1f, 0x1.5e2c3p+1f, 0x1.0a7262p+1f},
            0xf49d56934f2cbfecull, 2, 0x1.f81b13234dd54p-13, 18432, 41728,
            kClassifierNames);
const PinRun k2p5dFp32 =
    uniform({0x1.e79afep+1f, 0x1.5e2184p+1f, 0x1.0a9282p+1f},
            0x5b3d8a05a950e66dull, 8, 0x1.e1e20cfcf179ep-9, 83808, 11648,
            kClassifierNames);
const PinRun k2p5dBf16 =
    uniform({0x1.e7e51ep+1f, 0x1.5dd6c6p+1f, 0x1.0a68dcp+1f},
            0x9d9eece2160c72f3ull, 8, 0x1.e1d0d13299655p-9, 53232, 11648,
            kClassifierNames);
// The 3D gradient hashes were re-recorded when the cube's QKV block became
// [q|k|v] sub-blocks of the serial weight (a three-section spec): each rank
// holds other elements of the same gradients, and every other field held.
const PinRun k3dFp32 =
    uniform({0x1.e79afep+1f, 0x1.5e2184p+1f, 0x1.0a9282p+1f},
            0xb0929ad5949c0dd3ull, 8, 0x1.77a6465da95f2p-9, 89664, 10656,
            kClassifierNames);
const PinRun k3dBf16 =
    uniform({0x1.e7e236p+1f, 0x1.5e83aep+1f, 0x1.0a9acep+1f},
            0x442cd18da9f0c627ull, 8, 0x1.7797aec66da03p-9, 47664, 10656,
            kClassifierNames);
const PinRun kSequenceFp32 =
    uniform({0x1.113292p+1f, 0x1.33a5b2p+1f, 0x1.2455c8p+1f},
            0xdcd6170be216dce9ull, 2, 0x1.2347bf16d9313p-10, 81600, 29184,
            kVitNames);
const PinRun kSequenceBf16 =
    uniform({0x1.111714p+1f, 0x1.33b0fp+1f, 0x1.245284p+1f},
            0x59a9a05b0d46e055ull, 2, 0x1.23340854b48f2p-10, 53088, 29184,
            kVitNames);


// The other model shells, recorded from their per-class constructors.
const std::string kMlpClassifierNames =
    "embed.weight,embed.bias,block0.fc1.weight,block0.fc1.bias,"
    "block0.fc2.weight,block0.fc2.bias,block1.fc1.weight,block1.fc1.bias,"
    "block1.fc2.weight,block1.fc2.bias,head.weight,head.bias,";
const std::string kGptNames = "tok_emb.table,pos_emb.table," +
                              block_names("block0") + block_names("block1") +
                              "final_ln.gamma,final_ln.beta,lm_head.weight,"
                              "lm_head.bias,";
const PinRun kClassifierNoneFp32 =
    uniform({0x1.1ece5ep+1f, 0x1.37ea5p+1f, 0x1.fa8c0ep+0f},
            0x2f11d0d1225d432cull, 1, 0x0p+0, 0, 0, kMlpClassifierNames);
const PinRun kClassifierNoneBf16 = kClassifierNoneFp32;
const PinRun kClassifierOneDFp32 =
    uniform({0x1.1ece6p+1f, 0x1.37ea5p+1f, 0x1.fa8c0ep+0f},
            0xbfdb91ae74f3f8feull, 2, 0x1.f7d64799b7925p-14, 6144, 12800,
            kMlpClassifierNames);
const PinRun kClassifierOneDBf16 =
    uniform({0x1.1ec8b8p+1f, 0x1.37bf96p+1f, 0x1.fa8a6ap+0f},
            0x39761df81b5fe0f7ull, 2, 0x1.f7944f1a13267p-14, 3072, 12800,
            kMlpClassifierNames);
const PinRun kClassifierTwoPointFiveDFp32 =
    uniform({0x1.1ece6p+1f, 0x1.37ea5p+1f, 0x1.fa8c0ep+0f},
            0x9fd5745949cc5910ull, 8, 0x1.dbf5951ec2b96p-10, 37536, 4800,
            kMlpClassifierNames);
const PinRun kClassifierTwoPointFiveDBf16 =
    uniform({0x1.1e7544p+1f, 0x1.37d5acp+1f, 0x1.fa7df8p+0f},
            0x90816e65557798a0ull, 8, 0x1.dbe5ed6678756p-10, 23280, 4800,
            kMlpClassifierNames);
const PinRun kClassifierThreeDFp32 =
    uniform({0x1.1ece6p+1f, 0x1.37ea5p+1f, 0x1.fa8c0ep+0f},
            0xebbe394d3cee7e71ull, 8, 0x1.562963de7e019p-10, 22848, 3872,
            kMlpClassifierNames);
const PinRun kClassifierThreeDBf16 =
    uniform({0x1.1edb52p+1f, 0x1.37e57cp+1f, 0x1.facadep+0f},
            0x56e300430f1f0c23ull, 8, 0x1.5621774529024p-10, 11760, 3872,
            kMlpClassifierNames);
const PinRun kVitNoneFp32 =
    uniform({0x1.113292p+1f, 0x1.33a5b2p+1f, 0x1.2455c8p+1f},
            0x1f04bd174848046bull, 1, 0x0p+0, 0, 0, kVitNames);
const PinRun kVitNoneBf16 = kVitNoneFp32;
const PinRun kVitOneDFp32 =
    uniform({0x1.113292p+1f, 0x1.33a5bp+1f, 0x1.2455c8p+1f},
            0xaf8d15ce8af9f2c5ull, 2, 0x1.f85e82599e4dbp-13, 49152, 49280,
            kVitNames);
const PinRun kVitOneDBf16 =
    uniform({0x1.11319ep+1f, 0x1.339a7ap+1f, 0x1.245f9cp+1f},
            0x7f7a348dadb8dbbull, 2, 0x1.f7da915a5575cp-13, 24576, 49280,
            kVitNames);
const PinRun kGptNoneFp32 =
    uniform({0x1.dc8dc2p+1f, 0x1.e56e1ap+1f, 0x1.bd7878p+1f},
            0x1ffa73aefb126734ull, 1, 0x0p+0, 0, 0, kGptNames);
const PinRun kGptNoneBf16 = kGptNoneFp32;
const PinRun kGptOneDFp32 =
    uniform({0x1.dc8dcp+1f, 0x1.e56e18p+1f, 0x1.bd7878p+1f},
            0x1670468ac4571ae0ull, 2, 0x1.6a6e287c0d1f3p-12, 62304, 57600,
            kGptNames);
const PinRun kGptOneDBf16 =
    uniform({0x1.dc9078p+1f, 0x1.e51dbcp+1f, 0x1.bd8d1ap+1f},
            0xe6177ebca4d4e1f4ull, 2, 0x1.6a23f0ec74259p-12, 34656, 57600,
            kGptNames);

}  // namespace

TEST(LayerPin, NoneFp32) { check(Layout::kNone, t::Dtype::kF32, kNoneFp32); }
TEST(LayerPin, NoneBf16) { check(Layout::kNone, t::Dtype::kBF16, kNoneBf16); }
TEST(LayerPin, OneDFp32) { check(Layout::k1d, t::Dtype::kF32, k1dFp32); }
TEST(LayerPin, OneDBf16) { check(Layout::k1d, t::Dtype::kBF16, k1dBf16); }
TEST(LayerPin, TwoPointFiveDFp32) {
  check(Layout::k2p5d, t::Dtype::kF32, k2p5dFp32);
}
TEST(LayerPin, TwoPointFiveDBf16) {
  check(Layout::k2p5d, t::Dtype::kBF16, k2p5dBf16);
}
TEST(LayerPin, ThreeDFp32) { check(Layout::k3d, t::Dtype::kF32, k3dFp32); }
TEST(LayerPin, ThreeDBf16) { check(Layout::k3d, t::Dtype::kBF16, k3dBf16); }
TEST(LayerPin, SequenceFp32) {
  check(Layout::kSequence, t::Dtype::kF32, kSequenceFp32);
}
TEST(LayerPin, SequenceBf16) {
  check(Layout::kSequence, t::Dtype::kBF16, kSequenceBf16);
}
TEST(ModelPin, ClassifierNoneFp32) {
  check(Layout::kNone, t::Dtype::kF32, kClassifierNoneFp32, Model::kClassifier);
}
TEST(ModelPin, ClassifierNoneBf16) {
  check(Layout::kNone, t::Dtype::kBF16,
        kClassifierNoneBf16, Model::kClassifier);
}
TEST(ModelPin, ClassifierOneDFp32) {
  check(Layout::k1d, t::Dtype::kF32, kClassifierOneDFp32, Model::kClassifier);
}
TEST(ModelPin, ClassifierOneDBf16) {
  check(Layout::k1d, t::Dtype::kBF16, kClassifierOneDBf16, Model::kClassifier);
}
TEST(ModelPin, ClassifierTwoPointFiveDFp32) {
  check(Layout::k2p5d, t::Dtype::kF32,
        kClassifierTwoPointFiveDFp32, Model::kClassifier);
}
TEST(ModelPin, ClassifierTwoPointFiveDBf16) {
  check(Layout::k2p5d, t::Dtype::kBF16,
        kClassifierTwoPointFiveDBf16, Model::kClassifier);
}
TEST(ModelPin, ClassifierThreeDFp32) {
  check(Layout::k3d, t::Dtype::kF32, kClassifierThreeDFp32, Model::kClassifier);
}
TEST(ModelPin, ClassifierThreeDBf16) {
  check(Layout::k3d, t::Dtype::kBF16,
        kClassifierThreeDBf16, Model::kClassifier);
}
TEST(ModelPin, VitNoneFp32) {
  check(Layout::kNone, t::Dtype::kF32, kVitNoneFp32, Model::kVit);
}
TEST(ModelPin, VitNoneBf16) {
  check(Layout::kNone, t::Dtype::kBF16, kVitNoneBf16, Model::kVit);
}
TEST(ModelPin, VitOneDFp32) {
  check(Layout::k1d, t::Dtype::kF32, kVitOneDFp32, Model::kVit);
}
TEST(ModelPin, VitOneDBf16) {
  check(Layout::k1d, t::Dtype::kBF16, kVitOneDBf16, Model::kVit);
}
TEST(ModelPin, GptNoneFp32) {
  check(Layout::kNone, t::Dtype::kF32, kGptNoneFp32, Model::kGpt);
}
TEST(ModelPin, GptNoneBf16) {
  check(Layout::kNone, t::Dtype::kBF16, kGptNoneBf16, Model::kGpt);
}
TEST(ModelPin, GptOneDFp32) {
  check(Layout::k1d, t::Dtype::kF32, kGptOneDFp32, Model::kGpt);
}
TEST(ModelPin, GptOneDBf16) {
  check(Layout::k1d, t::Dtype::kBF16, kGptOneDBf16, Model::kGpt);
}
