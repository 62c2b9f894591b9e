// Exact pins of the Transformer layer under every data layout:
// TransformerClassifier trained for three SGD steps serially ("none"), under
// 1D (p=2), 2.5D (d=2, p=8) and 3D (p=8) tensor parallelism, and
// VitClassifier under sequence parallelism (p=2), each on the fp32 and the
// bf16 wire. Every observable is pinned as a literal: per-step losses (every
// rank must agree bit for bit), an FNV-1a hash of every gradient bit of every
// rank and step, per-rank simulated clocks, bytes sent, MemoryTracker peaks
// and the parameter names in collect_parameters order. Both the
// thread-per-rank oracle and the fiber backend must reproduce them.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "collective/backend.hpp"
#include "core/context.hpp"
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

PinRun run(Layout layout, t::Dtype wire, sim::SimBackend backend) {
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
    auto train = [&](auto& m, std::int64_t patches, std::int64_t patch_dim) {
      for (nn::Parameter* prm : m.parameters()) names[gi] += prm->name + ",";
      for (int s = 0; s < kSteps; ++s) {
        const auto x = t::randn(t::Shape{kBatch, patches, patch_dim},
                                300 + static_cast<std::uint64_t>(s));
        for (nn::Parameter* prm : m.parameters()) prm->grad.fill(0.0f);
        losses[gi].push_back(m.train_batch(x, labels));
        for (nn::Parameter* prm : m.parameters()) {
          for (float v : prm->grad.data()) {
            grad_bits[gi].push_back(std::bit_cast<std::uint32_t>(v));
          }
          t::axpy_(prm->value, -kLr, prm->grad);
        }
      }
    };
    if (layout == Layout::kSequence) {
      models::VitClassifier::Config mc;
      mc.patches = 4;
      mc.patch_dim = 8;
      mc.hidden = 16;
      mc.heads = 2;
      mc.ffn = 32;
      mc.layers = 2;
      mc.classes = 8;
      mc.seed = 29;
      models::VitClassifier m(env, models::VitClassifier::Mode::kSequence, mc);
      train(m, mc.patches, mc.patch_dim);
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
      train(m, mc.patches, mc.patch_dim);
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

void check(Layout layout, t::Dtype wire, const PinRun& want) {
  for (const sim::SimBackend be :
       {sim::SimBackend::kThreads, sim::SimBackend::kTasks}) {
    SCOPED_TRACE(be == sim::SimBackend::kThreads ? "threads" : "tasks");
    const PinRun got = run(layout, wire, be);
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
const PinRun k3dFp32 =
    uniform({0x1.e79afep+1f, 0x1.5e2184p+1f, 0x1.0a9282p+1f},
            0x17a2e6eff358142full, 8, 0x1.77a6465da95f2p-9, 89664, 10656,
            kClassifierNames);
const PinRun k3dBf16 =
    uniform({0x1.e7e236p+1f, 0x1.5e83aep+1f, 0x1.0a9acep+1f},
            0xf143411557c4050bull, 8, 0x1.7797aec66da03p-9, 47664, 10656,
            kClassifierNames);
const PinRun kSequenceFp32 =
    uniform({0x1.113292p+1f, 0x1.33a5b2p+1f, 0x1.2455c8p+1f},
            0xdcd6170be216dce9ull, 2, 0x1.2347bf16d9313p-10, 81600, 29184,
            kVitNames);
const PinRun kSequenceBf16 =
    uniform({0x1.111714p+1f, 0x1.33b0fp+1f, 0x1.245284p+1f},
            0x59a9a05b0d46e055ull, 2, 0x1.23340854b48f2p-10, 53088, 29184,
            kVitNames);

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
