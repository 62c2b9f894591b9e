// Exact pins of 2D tensor parallelism end to end: TransformerClassifier and
// Classifier trained for three SGD steps under the "2d" mode on 4 and 9
// ranks, on the fp32 and the bf16 wire. Every observable is pinned as a
// literal — per-step losses (every rank must agree bit for bit), an FNV-1a
// hash of every gradient bit of every rank and step, per-rank simulated
// clocks, bytes sent and MemoryTracker peaks — and must reproduce under the
// thread-per-rank oracle and the fiber backend alike. A "2d" config that
// carries a stray tensor_depth trains bit-identically: depth is a 2.5D
// parameter and the 2D grid ignores it.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "collective/backend.hpp"
#include "core/context.hpp"
#include "models/classifier.hpp"
#include "models/transformer_classifier.hpp"
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

/// What one run observes.
struct PinRun {
  std::vector<float> losses;       ///< per step (rank 0; all ranks must agree)
  std::uint64_t grad_hash = 0;     ///< every rank's gradient bits, every step
  std::vector<double> clocks;      ///< per rank
  std::vector<std::int64_t> bytes; ///< per rank
  std::vector<std::int64_t> peaks; ///< per rank MemoryTracker peak
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

enum class Model { kTransformer, kMlp };

/// Train `model` for kSteps under "2d" on p ranks with the given wire.
PinRun run(Model model, int p, t::Dtype wire, sim::SimBackend backend,
           int depth = 1) {
  const int q = core::Config::exact_sqrt(p);
  core::Config cfg;
  cfg.tensor_parallel_size = p;
  cfg.tensor_mode = core::TpMode::k2d;
  cfg.tensor_depth = depth;
  sim::Cluster cluster(sim::Topology::uniform(p, 100e9));
  cluster.set_backend(backend);
  col::Backend be(cluster);
  core::ParallelContext ctx(be, cfg);
  ctx.set_comm_dtype(wire);

  // Every dimension the grid splits is a multiple of q.
  const std::int64_t batch = 2 * q;
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < batch; ++i) labels.push_back(i % (3 * q));

  std::vector<std::vector<float>> losses(static_cast<std::size_t>(p));
  std::vector<std::vector<std::uint32_t>> grad_bits(
      static_cast<std::size_t>(p));
  cluster.run([&](int g) {
    const tp::Env env{&ctx, g};
    auto step = [&](auto& m, const t::Tensor& x) {
      for (nn::Parameter* prm : m.parameters()) prm->grad.fill(0.0f);
      losses[static_cast<std::size_t>(g)].push_back(m.train_batch(x, labels));
      for (nn::Parameter* prm : m.parameters()) {
        for (float v : prm->grad.data()) {
          grad_bits[static_cast<std::size_t>(g)].push_back(
              std::bit_cast<std::uint32_t>(v));
        }
        t::axpy_(prm->value, -kLr, prm->grad);
      }
    };
    if (model == Model::kTransformer) {
      models::TransformerClassifier::Config mc;
      mc.patches = 3;
      mc.patch_dim = 2 * q;
      mc.hidden = 4 * q;
      mc.heads = q;
      mc.ffn = 8 * q;
      mc.blocks = 2;
      mc.classes = 3 * q;
      mc.seed = 17;
      models::TransformerClassifier m(env, mc);
      for (int s = 0; s < kSteps; ++s) {
        step(m, t::randn(t::Shape{batch, mc.patches, mc.patch_dim},
                         100 + static_cast<std::uint64_t>(s)));
      }
    } else {
      const models::Classifier::Config mc{2 * q, 4 * q, 3 * q, 2, 23};
      models::Classifier m(env, mc);
      for (int s = 0; s < kSteps; ++s) {
        step(m, t::randn(t::Shape{batch, mc.features},
                         200 + static_cast<std::uint64_t>(s)));
      }
    }
  });

  PinRun out;
  out.losses = losses[0];
  Fnv1a h;
  for (int g = 0; g < p; ++g) {
    const auto& mine = losses[static_cast<std::size_t>(g)];
    EXPECT_EQ(mine.size(), out.losses.size()) << "rank " << g;
    for (std::size_t s = 0; s < mine.size() && s < out.losses.size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(mine[s]),
                std::bit_cast<std::uint32_t>(out.losses[s]))
          << "rank " << g << " step " << s;
    }
    for (std::uint32_t w : grad_bits[static_cast<std::size_t>(g)]) h.add(w);
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
  return s + "}}";
}

void expect_pinned(const PinRun& got, const PinRun& want) {
  SCOPED_TRACE("got " + literal(got));
  ASSERT_EQ(got.losses.size(), want.losses.size());
  for (std::size_t s = 0; s < want.losses.size(); ++s) {
    EXPECT_EQ(got.losses[s], want.losses[s]) << "step " << s;
  }
  EXPECT_EQ(got.grad_hash, want.grad_hash);
  EXPECT_EQ(got.clocks, want.clocks);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.peaks, want.peaks);
}

/// Clocks, bytes and peaks given as one value for every rank.
PinRun uniform(std::vector<float> losses, std::uint64_t grad_hash, int p,
               double clock, std::int64_t bytes, std::int64_t peak) {
  const auto n = static_cast<std::size_t>(p);
  return PinRun{std::move(losses), grad_hash, std::vector<double>(n, clock),
                std::vector<std::int64_t>(n, bytes),
                std::vector<std::int64_t>(n, peak)};
}

void check(Model model, int p, t::Dtype wire, const PinRun& want) {
  for (const sim::SimBackend be :
       {sim::SimBackend::kThreads, sim::SimBackend::kTasks}) {
    SCOPED_TRACE(be == sim::SimBackend::kThreads ? "threads" : "tasks");
    expect_pinned(run(model, p, wire, be), want);
  }
}

// Recorded from the dedicated 2D SUMMA implementation that preceded the
// depth-1 grid; the grid must reproduce them bit for bit.
const PinRun kTransformerP4Fp32 =
    uniform({0x1.10774ap+1f, 0x1.aa7a34p+0f, 0x1.2922acp+1f},
            0xda1875e724ddc256ull, 4, 0x1.581ef629cd3a9p-9, 21804, 5480);
const PinRun kTransformerP4Bf16 =
    uniform({0x1.1048fep+1f, 0x1.aac768p+0f, 0x1.29531ep+1f},
            0x222299a55d2444c2ull, 4, 0x1.581a6436d592dp-9, 14994, 5480);
const PinRun kTransformerP9Fp32 =
    uniform({0x1.806fbcp+1f, 0x1.dd504ep+0f, 0x1.47c232p+1f},
            0xfb007618e9b9e213ull, 9, 0x1.d013c2cac1368p-8, 42117, 5480);
const PinRun kTransformerP9Bf16 =
    uniform({0x1.80a1eep+1f, 0x1.dcdc18p+0f, 0x1.47922p+1f},
            0xd086fb0c577e5107ull, 9, 0x1.d00d08569c8e9p-8, 28722, 5480);
const PinRun kMlpP4Fp32 =
    uniform({0x1.c965eap+0f, 0x1.d3276ep+0f, 0x1.e7218p+0f},
            0x8a9288e0fc792b94ull, 4, 0x1.5623c4983ab27p-10, 8076, 2056);
const PinRun kMlpP4Bf16 =
    uniform({0x1.c9643cp+0f, 0x1.d30bfap+0f, 0x1.e7877ep+0f},
            0xd86511232b3a5082ull, 4, 0x1.56202b1103b16p-10, 5394, 2056);
const PinRun kMlpP9Fp32 =
    uniform({0x1.2322b8p+1f, 0x1.1f1adep+1f, 0x1.2af72cp+1f},
            0x75d08ef10da89655ull, 9, 0x1.e7a642689256bp-9, 15915, 2056);
const PinRun kMlpP9Bf16 =
    uniform({0x1.231a6ep+1f, 0x1.1f0c2ep+1f, 0x1.2ad908p+1f},
            0xb15527452ff9bde5ull, 9, 0x1.e7a0fc121da7fp-9, 10644, 2056);

}  // namespace

TEST(Grid2dPin, TransformerClassifierP4Fp32) {
  check(Model::kTransformer, 4, t::Dtype::kF32, kTransformerP4Fp32);
}

TEST(Grid2dPin, TransformerClassifierP4Bf16) {
  check(Model::kTransformer, 4, t::Dtype::kBF16, kTransformerP4Bf16);
}

TEST(Grid2dPin, TransformerClassifierP9Fp32) {
  check(Model::kTransformer, 9, t::Dtype::kF32, kTransformerP9Fp32);
}

TEST(Grid2dPin, TransformerClassifierP9Bf16) {
  check(Model::kTransformer, 9, t::Dtype::kBF16, kTransformerP9Bf16);
}

TEST(Grid2dPin, ClassifierP4Fp32) {
  check(Model::kMlp, 4, t::Dtype::kF32, kMlpP4Fp32);
}

TEST(Grid2dPin, ClassifierP4Bf16) {
  check(Model::kMlp, 4, t::Dtype::kBF16, kMlpP4Bf16);
}

TEST(Grid2dPin, ClassifierP9Fp32) {
  check(Model::kMlp, 9, t::Dtype::kF32, kMlpP9Fp32);
}

TEST(Grid2dPin, ClassifierP9Bf16) {
  check(Model::kMlp, 9, t::Dtype::kBF16, kMlpP9Bf16);
}

TEST(Grid2dPin, StrayTensorDepthIsIgnored) {
  // tensor_depth is the d of 2.5D; a "2d" config carrying depth 4 still
  // builds the 4-GPU depth-1 grid and trains bit-identically to depth 1.
  for (t::Dtype wire : {t::Dtype::kF32, t::Dtype::kBF16}) {
    const bool f32 = wire == t::Dtype::kF32;
    const auto threads = sim::SimBackend::kThreads;
    expect_pinned(run(Model::kTransformer, 4, wire, threads, /*depth=*/4),
                  f32 ? kTransformerP4Fp32 : kTransformerP4Bf16);
    expect_pinned(run(Model::kMlp, 4, wire, threads, /*depth=*/4),
                  f32 ? kMlpP4Fp32 : kMlpP4Bf16);
  }
}
