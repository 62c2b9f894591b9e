// google-benchmark microbenchmarks of the substrate kernels: the matmul and
// activation kernels that dominate functional-mode time, and the collective
// primitives under concurrent SPMD execution.

#include <benchmark/benchmark.h>

#include <array>
#include <string>

#include "bench_common.hpp"
#include "collective/backend.hpp"
#include "nn/layers.hpp"
#include "sim/cluster.hpp"
#include "tensor/convert.hpp"
#include "tensor/ops.hpp"

namespace t = ca::tensor;

namespace {

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto a = t::randn(t::Shape{n, n}, 1);
  auto b = t::randn(t::Shape{n, n}, 2);
  for (auto _ : state) {
    auto c = t::matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_MatmulTransposed(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto a = t::randn(t::Shape{n, n}, 1);
  auto b = t::randn(t::Shape{n, n}, 2);
  for (auto _ : state) {
    auto c = t::matmul_nt(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulTransposed)->Arg(128)->Arg(512);

void BM_NaiveMatmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto a = t::randn(t::Shape{n, n}, 1);
  auto b = t::randn(t::Shape{n, n}, 2);
  for (auto _ : state) {
    auto c = t::naive_matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_NaiveMatmul)->Arg(512);

void BM_Softmax(benchmark::State& state) {
  auto x = t::randn(t::Shape{256, state.range(0)}, 3);
  for (auto _ : state) {
    auto y = t::softmax_lastdim(x);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(1024);

// The fused scaled softmax at the attention-score shape of one hybrid_train
// micro-batch (batch x heads = 16 rows of 32 x 32 scores).
void BM_SoftmaxAttention(benchmark::State& state) {
  auto x = t::randn(t::Shape{16, 32, 32}, 3);
  for (auto _ : state) {
    auto y = t::softmax_lastdim_scaled(x, 0.17677669f);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_SoftmaxAttention);

void BM_LayerNorm(benchmark::State& state) {
  auto x = t::randn(t::Shape{256, state.range(0)}, 4);
  auto gamma = t::ones(t::Shape{state.range(0)});
  auto beta = t::zeros(t::Shape{state.range(0)});
  t::Tensor mean, rstd;
  for (auto _ : state) {
    auto y = t::layernorm_forward(x, gamma, beta, 1e-5f, mean, rstd);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_LayerNorm)->Arg(768);

void BM_Gelu(benchmark::State& state) {
  auto x = t::randn(t::Shape{1 << 16}, 5);
  for (auto _ : state) {
    auto y = t::gelu(x);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Gelu);

void BM_GeluBackward(benchmark::State& state) {
  auto x = t::randn(t::Shape{1 << 16}, 5);
  auto dy = t::randn(t::Shape{1 << 16}, 6);
  for (auto _ : state) {
    auto dx = t::gelu_backward(x, dy);
    benchmark::DoNotOptimize(dx.data().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_GeluBackward);

void BM_AttentionForward(benchmark::State& state) {
  ca::nn::MultiHeadAttention attn("a", 256, 8, 7);
  auto x = t::randn(t::Shape{4, 64, 256}, 8);
  for (auto _ : state) {
    auto y = attn.forward(x);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_AttentionForward);

void BM_AllReduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  ca::sim::Cluster cluster(ca::sim::Topology::uniform(p, 100e9));
  ca::collective::Backend backend(cluster);
  std::vector<std::vector<float>> bufs(
      static_cast<std::size_t>(p), std::vector<float>(1 << 14, 1.0f));
  for (auto _ : state) {
    cluster.run([&](int r) {
      backend.world().all_reduce(r, bufs[static_cast<std::size_t>(r)]);
    });
  }
  state.SetItemsProcessed(state.iterations() * p * (1 << 14));
}
BENCHMARK(BM_AllReduce)->Arg(2)->Arg(4)->Arg(8);

// Machine-readable snapshot of the kernels that gate functional-mode
// throughput, written as BENCH_kernels.json (tracked across PRs).
void write_json_report() {
  bench::JsonReport report("BENCH_kernels.json");

  // Shapes read m x k x n (batch first for bmm). Each variant gets operands
  // in the layout it reads: NT takes b as (n, k), TN takes a as (k, m).
  const auto label = [](std::initializer_list<std::int64_t> dims) {
    std::string s;
    for (std::int64_t d : dims) s += (s.empty() ? "" : "x") + std::to_string(d);
    return s;
  };
  const auto gemm_row = [&](const std::string& op, std::int64_t m,
                            std::int64_t k, std::int64_t n, auto&& fn) {
    auto a = op == "matmul_tn" ? t::randn(t::Shape{k, m}, 1)
                               : t::randn(t::Shape{m, k}, 1);
    auto b = op == "matmul_nt" ? t::randn(t::Shape{n, k}, 2)
                               : t::randn(t::Shape{k, n}, 2);
    const double ns = bench::time_ns([&] {
      auto c = fn(a, b);
      benchmark::DoNotOptimize(c.data().data());
    });
    const double flops = 2.0 * static_cast<double>(m) * n * k;
    report.add(op, label({m, k, n}), ns, flops / ns);
  };
  const auto matmul = [](auto& a, auto& b) { return t::matmul(a, b); };
  const auto matmul_nt = [](auto& a, auto& b) { return t::matmul_nt(a, b); };
  const auto matmul_tn = [](auto& a, auto& b) { return t::matmul_tn(a, b); };
  for (std::int64_t n : {256, 512}) {
    gemm_row("matmul", n, n, n, matmul);
    gemm_row("matmul_nt", n, n, n, matmul_nt);
    gemm_row("matmul_tn", n, n, n, matmul_tn);
  }
  // The workloads' shapes: hybrid_train's column-parallel MLP GEMM (128
  // tokens x 128 hidden x 256 ffn/tp) and zero3_ckpt's 16-row fc2 (k = 1024).
  for (const auto& [m, k, n] : {std::array<std::int64_t, 3>{128, 128, 256},
                                std::array<std::int64_t, 3>{16, 1024, 256}}) {
    gemm_row("matmul_nt", m, k, n, matmul_nt);
    gemm_row("matmul_tn", m, k, n, matmul_tn);
  }
  gemm_row("naive_matmul", 512, 512, 512,
           [](auto& a, auto& b) { return t::naive_matmul(a, b); });

  const auto bmm_row = [&](const std::string& op, std::int64_t batch,
                           std::int64_t m, std::int64_t k, std::int64_t n,
                           auto&& fn) {
    auto a = op == "bmm_tn" ? t::randn(t::Shape{batch, k, m}, 3)
                            : t::randn(t::Shape{batch, m, k}, 3);
    auto b = op == "bmm_nt" ? t::randn(t::Shape{batch, n, k}, 4)
                            : t::randn(t::Shape{batch, k, n}, 4);
    const double ns = bench::time_ns([&] {
      auto c = fn(a, b);
      benchmark::DoNotOptimize(c.data().data());
    });
    const double flops = 2.0 * static_cast<double>(batch) * m * n * k;
    report.add(op, label({batch, m, k, n}), ns, flops / ns);
  };
  bmm_row("bmm", 8, 256, 256, 256,
          [](auto& a, auto& b) { return t::bmm(a, b); });
  // Per-head attention matmuls at hybrid_train's shape: 8 (micro-batch x
  // local heads) x 32 tokens x 32 head dim.
  bmm_row("bmm_nt", 8, 32, 32, 32,
          [](auto& a, auto& b) { return t::bmm_nt(a, b); });
  bmm_row("bmm_tn", 8, 32, 32, 32,
          [](auto& a, auto& b) { return t::bmm_tn(a, b); });

  // The Transformer block's elementwise kernels at the hybrid_train shapes:
  // the MLP activation (128 tokens x 512 ffn) and the attention scores.
  {
    auto x = t::randn(t::Shape{128, 512}, 5);
    auto dy = t::randn(t::Shape{128, 512}, 6);
    report.add("gelu", "128x512", bench::time_ns([&] {
      auto y = t::gelu(x);
      benchmark::DoNotOptimize(y.data().data());
    }), 0.0);
    report.add("gelu_backward", "128x512", bench::time_ns([&] {
      auto dx = t::gelu_backward(x, dy);
      benchmark::DoNotOptimize(dx.data().data());
    }), 0.0);
    auto scores = t::randn(t::Shape{16, 32, 32}, 7);
    report.add("softmax", "16x32x32", bench::time_ns([&] {
      auto y = t::softmax_lastdim_scaled(scores, 0.17677669f);
      benchmark::DoNotOptimize(y.data().data());
    }), 0.0);
  }

  // The bf16 wire round trip at hybrid_train's TP all-reduce size (16 Ki
  // floats), below the OpenMP team threshold: one thread, SIMD.
  {
    auto x = t::randn(t::Shape{1 << 14}, 9);
    auto y = t::Tensor(t::Shape{1 << 14});
    report.add("round_trip_bf16", "16384", bench::time_ns([&] {
      t::round_trip_bf16(x.data().data(), y.data().data(), x.numel());
      benchmark::DoNotOptimize(y.data().data());
    }), 0.0);
  }

  for (int p : {4, 8}) {
    const std::int64_t elems = 1 << 20;
    ca::sim::Cluster cluster(ca::sim::Topology::uniform(p, 100e9));
    ca::collective::Backend backend(cluster);
    std::vector<std::vector<float>> bufs(
        static_cast<std::size_t>(p),
        std::vector<float>(static_cast<std::size_t>(elems), 1.0f));
    const double ns = bench::time_ns([&] {
      cluster.run([&](int r) {
        backend.world().all_reduce(r, bufs[static_cast<std::size_t>(r)]);
      });
    });
    report.add("all_reduce", "p=" + std::to_string(p) + " n=1048576", ns, 0.0);
  }

  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_json_report();
  return 0;
}
