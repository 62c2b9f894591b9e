// Exact pins of ZeRO training: ZeroEngine at stages 1, 2 and 3 over four
// data-parallel ranks, on the fp32 and the bf16 wire, under the thread and
// the fiber backend. The model is two nn::Mlp blocks (hidden 3, ffn 7), so
// every parameter is ragged over the group (21 and 7 elements) or smaller
// than it (the 3-element fc2 bias). Each rank trains on its own batch. Every
// observable is a literal: per-step losses of every rank, an FNV-1a hash of
// every parameter bit of every rank before each step and after the last,
// per-rank simulated clocks, bytes sent, MemoryTracker peaks,
// model_state_bytes(), and a hash of the save_state bytes (equal on every
// rank). After the save, every rank restores those bytes and takes one more
// step, so load_state's re-slicing is pinned through its effect.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "collective/backend.hpp"
#include "core/context.hpp"
#include "engine/zero_engine.hpp"
#include "nn/layers.hpp"
#include "sim/cluster.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace tp = ca::tp;

namespace {

constexpr int kWorld = 4;
constexpr int kSteps = 3;
constexpr std::int64_t kRows = 4;
constexpr std::int64_t kHidden = 3;
constexpr std::int64_t kFfn = 7;

struct PinRun {
  std::vector<float> losses;  ///< kSteps + 1 per rank, rank-major
  std::uint64_t param_hash = 0;
  std::vector<double> clocks;
  std::vector<std::int64_t> bytes;
  std::vector<std::int64_t> peaks;
  std::int64_t state_bytes = 0;
  std::uint64_t ckpt_hash = 0;
};

class Fnv1a {
 public:
  void add_byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  void add(std::uint32_t word) {
    for (int i = 0; i < 4; ++i) add_byte((word >> (8 * i)) & 0xffu);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Each stage takes another weight-decay rule, so the three branches of the
/// Adam update are all pinned.
ca::optim::Adam::Hyper hyper_of(int stage) {
  ca::optim::Adam::Hyper h;
  h.lr = 0.05f;
  if (stage == 1) h.weight_decay = 0.1f;  // L2 on the gradient
  if (stage == 2) {
    h.weight_decay = 0.1f;
    h.decoupled = true;  // AdamW
  }
  return h;
}

PinRun run(int stage, t::Dtype wire, sim::SimBackend backend) {
  core::Config cfg;
  cfg.data_parallel_size = kWorld;
  sim::Cluster cluster(sim::Topology::uniform(kWorld, 100e9));
  cluster.set_backend(backend);
  col::Backend be(cluster);
  core::ParallelContext ctx(be, cfg);
  ctx.set_comm_dtype(wire);

  std::vector<std::vector<float>> losses(kWorld);
  std::vector<std::vector<std::uint32_t>> param_bits(kWorld);
  std::vector<std::string> ckpts(kWorld);
  std::vector<std::int64_t> state_bytes(kWorld);
  cluster.run([&](int g) {
    const auto gi = static_cast<std::size_t>(g);
    nn::Sequential model;
    model.add(std::make_unique<nn::Mlp>("mlp0", kHidden, kFfn, 41));
    model.add(std::make_unique<nn::Mlp>("mlp1", kHidden, kFfn, 43));
    ca::engine::ZeroEngine eng(tp::Env{&ctx, g}, model, hyper_of(stage),
                               stage);
    auto train_step = [&](int s) {
      eng.zero_grad();
      const auto seed = static_cast<std::uint64_t>(500 + 10 * g + s);
      const t::Tensor x = t::randn(t::Shape{kRows, kHidden}, seed);
      const t::Tensor logits = eng.forward(x);  // stage 3 gathers here
      for (nn::Parameter* p : model.parameters()) {
        for (float v : p->value.data()) {
          param_bits[gi].push_back(std::bit_cast<std::uint32_t>(v));
        }
      }
      std::vector<std::int64_t> labels;
      for (std::int64_t i = 0; i < kRows; ++i) {
        labels.push_back((i + g + s) % kHidden);
      }
      losses[gi].push_back(eng.criterion(logits, labels));
      eng.backward();
      eng.step();
    };
    for (int s = 0; s < kSteps; ++s) train_step(s);
    std::ostringstream os;
    eng.optimizer().save_state(os);
    ckpts[gi] = os.str();
    state_bytes[gi] = eng.optimizer().model_state_bytes();
    std::istringstream is(ckpts[gi]);
    eng.optimizer().load_state(is);
    train_step(kSteps);
    eng.optimizer().gather_params();
    for (nn::Parameter* p : model.parameters()) {
      for (float v : p->value.data()) {
        param_bits[gi].push_back(std::bit_cast<std::uint32_t>(v));
      }
    }
    eng.optimizer().release_params();
  });

  PinRun out;
  Fnv1a params;
  Fnv1a ckpt;
  for (char c : ckpts[0]) ckpt.add_byte(static_cast<std::uint8_t>(c));
  for (int g = 0; g < kWorld; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    EXPECT_EQ(ckpts[gi], ckpts[0]) << "rank " << g << " wrote other bytes";
    out.losses.insert(out.losses.end(), losses[gi].begin(), losses[gi].end());
    for (std::uint32_t w : param_bits[gi]) params.add(w);
    out.clocks.push_back(cluster.device(g).clock());
    out.bytes.push_back(cluster.device(g).bytes_sent());
    out.peaks.push_back(cluster.device(g).mem().peak());
    EXPECT_EQ(state_bytes[gi], state_bytes[0]) << "rank " << g;
  }
  out.param_hash = params.value();
  out.state_bytes = state_bytes[0];
  out.ckpt_hash = ckpt.value();
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
                static_cast<unsigned long long>(r.param_hash));
  s += buf;
  for (double v : r.clocks) {
    std::snprintf(buf, sizeof buf, "%a, ", v);
    s += buf;
  }
  s += "}, {";
  for (std::int64_t v : r.bytes) s += std::to_string(v) + ", ";
  s += "}, {";
  for (std::int64_t v : r.peaks) s += std::to_string(v) + ", ";
  std::snprintf(buf, sizeof buf, "}, %lld, 0x%llxull}",
                static_cast<long long>(r.state_bytes),
                static_cast<unsigned long long>(r.ckpt_hash));
  return s + buf;
}

void check(int stage, t::Dtype wire, const PinRun& want) {
  for (const sim::SimBackend be :
       {sim::SimBackend::kThreads, sim::SimBackend::kTasks}) {
    SCOPED_TRACE(be == sim::SimBackend::kThreads ? "threads" : "tasks");
    const PinRun got = run(stage, wire, be);
    SCOPED_TRACE("got " + literal(got));
    ASSERT_EQ(got.losses.size(), want.losses.size());
    for (std::size_t s = 0; s < want.losses.size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got.losses[s]),
                std::bit_cast<std::uint32_t>(want.losses[s]))
          << "loss " << s;
    }
    EXPECT_EQ(got.param_hash, want.param_hash);
    EXPECT_EQ(got.clocks, want.clocks);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.peaks, want.peaks);
    EXPECT_EQ(got.state_bytes, want.state_bytes);
    EXPECT_EQ(got.ckpt_hash, want.ckpt_hash);
  }
}

// Recorded from the optimizer that kept a separate master copy and chunk
// loop per stage, before the single shard record.
const PinRun kStage1Fp32 = {
    {0x1.312d82p+0f, 0x1.252312p+0f, 0x1.285e82p+0f, 0x1.0560b2p+0f,
     0x1.0fb67p+0f, 0x1.381e32p+0f, 0x1.1786e6p+0f, 0x1.17008p+0f,
     0x1.0c0232p+0f, 0x1.240a6p+0f, 0x1.0a1ebep+0f, 0x1.1a399p+0f,
     0x1.1b58f6p+0f, 0x1.1c47f8p+0f, 0x1.391e0ap+0f, 0x1.1d242ep+0f},
    0x53f5a307abf03ce5ull,
    {0x1.a37494f77b505p-10, 0x1.a37494f77b505p-10,
     0x1.a37494f77b505p-10, 0x1.a37494f77b505p-10},
    {5376, 5376, 5376, 5376},
    {0, 0, 0, 0},
    1192,
    0x6d4cde0425333f0bull};
const PinRun kStage1Bf16 = {
    {0x1.312d82p+0f, 0x1.251fcap+0f, 0x1.287ecep+0f, 0x1.0557ap+0f,
     0x1.0fb67p+0f, 0x1.37ec1p+0f, 0x1.178facp+0f, 0x1.17040cp+0f,
     0x1.0c0232p+0f, 0x1.23de4ap+0f, 0x1.09fb1ep+0f, 0x1.1a393ap+0f,
     0x1.1b58f6p+0f, 0x1.1c4db6p+0f, 0x1.392cd6p+0f, 0x1.1d32a8p+0f},
    0xf0aa27c09ee482f5ull,
    {0x1.a371be9a13409p-10, 0x1.a371be9a13409p-10,
     0x1.a371be9a13409p-10, 0x1.a371be9a13409p-10},
    {3228, 3228, 3228, 3228},
    {0, 0, 0, 0},
    1192,
    0xd6c825eccccb6aafull};
const PinRun kStage2Fp32 = {
    {0x1.312d82p+0f, 0x1.2168p+0f, 0x1.53de2cp+0f, 0x1.035e88p+0f,
     0x1.0fb67p+0f, 0x1.3a1d3cp+0f, 0x1.1adf6cp+0f, 0x1.183d6ap+0f,
     0x1.0c0232p+0f, 0x1.310d6ep+0f, 0x1.118df4p+0f, 0x1.1d6e18p+0f,
     0x1.1b58f6p+0f, 0x1.1e3c82p+0f, 0x1.c464c6p+0f, 0x1.fa5156p-1f},
    0xed955d0b61175725ull,
    {0x1.797fa9cb995a3p-10, 0x1.797fa9cb995a3p-10,
     0x1.797fa9cb995a3p-10, 0x1.797fa9cb995a3p-10},
    {4320, 4320, 4320, 4320},
    {0, 0, 0, 0},
    896,
    0xf127343056f917bbull};
const PinRun kStage2Bf16 = {
    {0x1.312d82p+0f, 0x1.215ea6p+0f, 0x1.53d1ap+0f, 0x1.033e34p+0f,
     0x1.0fb67p+0f, 0x1.3a03e2p+0f, 0x1.1adf6ep+0f, 0x1.1833ecp+0f,
     0x1.0c0232p+0f, 0x1.30ced4p+0f, 0x1.115bap+0f, 0x1.1d5314p+0f,
     0x1.1b58f6p+0f, 0x1.1e4ad8p+0f, 0x1.c49ac4p+0f, 0x1.fa5a82p-1f},
    0x3bb4c3d192d8e2e5ull,
    {0x1.797e937b3edcap-10, 0x1.797e937b3edcap-10,
     0x1.797e937b3edcap-10, 0x1.797e937b3edcap-10},
    {2700, 2700, 2700, 2700},
    {0, 0, 0, 0},
    896,
    0x6feee4ba59566a7eull};
const PinRun kStage3Fp32 = {
    {0x1.312d82p+0f, 0x1.2162fp+0f, 0x1.55f428p+0f, 0x1.02de8ap+0f,
     0x1.0fb67p+0f, 0x1.3b775ap+0f, 0x1.1af0b8p+0f, 0x1.18744cp+0f,
     0x1.0c0232p+0f, 0x1.31dd1p+0f, 0x1.10e6b6p+0f, 0x1.1d37eap+0f,
     0x1.1b58f6p+0f, 0x1.1e5f4cp+0f, 0x1.cae7fep+0f, 0x1.f856a4p-1f},
    0x91b8d77b292f4385ull,
    {0x1.797fa9cb995a3p-10, 0x1.797fa9cb995a3p-10,
     0x1.797fa9cb995a3p-10, 0x1.797fa9cb995a3p-10},
    {4320, 4320, 4320, 4320},
    {0, 0, 0, 0},
    600,
    0xb9cce17d59d39881ull};
const PinRun kStage3Bf16 = {
    {0x1.312d82p+0f, 0x1.2162fp+0f, 0x1.560062p+0f, 0x1.02da8ap+0f,
     0x1.0fb67p+0f, 0x1.3b775ap+0f, 0x1.1aed8ep+0f, 0x1.18764ap+0f,
     0x1.0c0232p+0f, 0x1.31dd1p+0f, 0x1.10e71ap+0f, 0x1.1d389cp+0f,
     0x1.1b58f6p+0f, 0x1.1e5f4cp+0f, 0x1.caee36p+0f, 0x1.f85e8p-1f},
    0x61c2258f74318bfdull,
    {0x1.797f2e19aa06p-10, 0x1.797f2e19aa06p-10,
     0x1.797f2e19aa06p-10, 0x1.797f2e19aa06p-10},
    {3600, 3600, 3600, 3600},
    {0, 0, 0, 0},
    600,
    0x155ff58d070d6a45ull};

}  // namespace

TEST(ZeroPin, Stage1Fp32) { check(1, t::Dtype::kF32, kStage1Fp32); }
TEST(ZeroPin, Stage1Bf16) { check(1, t::Dtype::kBF16, kStage1Bf16); }
TEST(ZeroPin, Stage2Fp32) { check(2, t::Dtype::kF32, kStage2Fp32); }
TEST(ZeroPin, Stage2Bf16) { check(2, t::Dtype::kBF16, kStage2Bf16); }
TEST(ZeroPin, Stage3Fp32) { check(3, t::Dtype::kF32, kStage3Fp32); }
TEST(ZeroPin, Stage3Bf16) { check(3, t::Dtype::kBF16, kStage3Bf16); }
