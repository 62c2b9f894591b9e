#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "tensor/convert.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace t = ca::tensor;
namespace sim = ca::sim;

namespace {

/// Median seconds per call of `fn(reps)`, which makes `reps` calls: reps is
/// sized from one trial so each timed run lasts about `run_s`.
template <class Fn>
double seconds_per_call(Fn&& fn, double run_s, int runs) {
  std::int64_t t0 = host_ns();
  fn(2);
  const double trial = std::max(seconds_since(t0) / 2.0, 1e-7);
  const int reps = std::clamp(static_cast<int>(run_s / trial), 1, 100000);
  std::vector<double> per_call;
  for (int i = 0; i < runs; ++i) {
    t0 = host_ns();
    fn(reps);
    per_call.push_back(seconds_since(t0) / reps);
  }
  return median(per_call);
}

void use_tasks(sim::Cluster& c, int workers) {
  c.set_backend(sim::SimBackend::kTasks);
  c.set_workers(workers);
}

}  // namespace

void run_probes(const ProbePlan& plan, int workers, bool smoke, Metrics& m) {
  const double run_s = smoke ? 0.005 : 0.06;
  const int runs = smoke ? 2 : 5;

  {
    const t::Tensor a = t::randn(t::Shape{plan.gemm_m, plan.gemm_k}, 1);
    const t::Tensor b = t::randn(t::Shape{plan.gemm_k, plan.gemm_n}, 2);
    const double s = seconds_per_call(
        [&](int reps) {
          for (int i = 0; i < reps; ++i) (void)t::matmul(a, b);
        },
        run_s, runs);
    const double flops = 2.0 * static_cast<double>(plan.gemm_m) *
                         static_cast<double>(plan.gemm_k) *
                         static_cast<double>(plan.gemm_n);
    m["tensor.gemm_gflops"] = {flops / s * 1e-9, "GFLOP/s"};
  }
  {
    const auto n = static_cast<std::size_t>(plan.convert_elems);
    std::vector<float> src(n), dst(n);
    for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<float>(i % 1021) * 0.37f;
    const double s = seconds_per_call(
        [&](int reps) {
          for (int i = 0; i < reps; ++i)
            t::round_trip_bf16(src.data(), dst.data(), plan.convert_elems);
        },
        run_s, runs);
    // fp32 read + fp32 write per element
    m["tensor.convert_gbps"] = {8.0 * static_cast<double>(n) / s * 1e-9, "GB/s"};
  }
  {
    sim::Cluster c(sim::Topology::system_iv(64));
    use_tasks(c, kCostOnlyWorkers);
    ca::collective::Backend backend(c);
    auto& world = backend.world();
    const double s = seconds_per_call(
        [&](int reps) {
          c.run([&](int g) {
            for (int i = 0; i < reps; ++i) world.account_all_reduce(g, 1 << 20);
          });
        },
        run_s, runs);
    m["collective.rendezvous_us"] = {s * 1e6, "us"};
  }
  {
    World w(plan.ar_topo(), plan.ar_cfg, workers);
    const int n = w.cluster.world_size();
    std::vector<std::vector<float>> bufs(
        static_cast<std::size_t>(n),
        std::vector<float>(static_cast<std::size_t>(plan.ar_elems), 0.5f));
    const double s = seconds_per_call(
        [&](int reps) {
          w.cluster.run([&](int g) {
            auto& buf = bufs[static_cast<std::size_t>(g)];
            for (int i = 0; i < reps; ++i)
              w.ctx.data_group(g).all_reduce(g, buf, 0.5f, t::Dtype::kBF16);
          });
        },
        run_s, runs);
    m["collective.allreduce_gbps"] = {
        4.0 * static_cast<double>(plan.ar_elems) / s * 1e-9, "GB/s"};
  }
  {
    World w(plan.rs_topo(), plan.rs_cfg, workers);
    const int n = w.cluster.world_size();
    const std::int64_t shard = plan.rs_elems / w.ctx.data_group(0).size();
    std::vector<std::vector<float>> full(
        static_cast<std::size_t>(n),
        std::vector<float>(static_cast<std::size_t>(plan.rs_elems), 0.25f));
    std::vector<std::vector<float>> part(
        static_cast<std::size_t>(n), std::vector<float>(static_cast<std::size_t>(shard)));
    const double s = seconds_per_call(
        [&](int reps) {
          w.cluster.run([&](int g) {
            auto& grp = w.ctx.data_group(g);
            auto& f = full[static_cast<std::size_t>(g)];
            auto& p = part[static_cast<std::size_t>(g)];
            for (int i = 0; i < reps; ++i) {
              grp.reduce_scatter(g, f, p, 0.125f, t::Dtype::kBF16);
              grp.all_gather(g, p, f, t::Dtype::kBF16);
            }
          });
        },
        run_s, runs);
    // the full fp32 buffer goes in to the reduce-scatter and back out of the
    // all-gather
    m["collective.rs_ag_gbps"] = {
        8.0 * static_cast<double>(plan.rs_elems) / s * 1e-9, "GB/s"};
  }
  {
    sim::Cluster c(plan.region_topo());
    use_tasks(c, plan.region_workers);
    const double s = seconds_per_call(
        [&](int reps) {
          for (int i = 0; i < reps; ++i) c.run([](int) {});
        },
        run_s, runs);
    m["sim.region_us"] = {s * 1e6, "us"};
  }
  {
    std::vector<double> ms;
    for (int i = 0; i < (smoke ? 1 : 5); ++i) {
      double total = 0.0;
      for (const auto& [topo, cfg] : plan.contexts) {
        sim::Cluster c(topo());
        use_tasks(c, workers);
        ca::collective::Backend backend(c);
        const std::int64_t t0 = host_ns();
        ca::core::ParallelContext ctx(backend, cfg);
        total += seconds_since(t0) * 1e3;
      }
      ms.push_back(total);
    }
    m["core.context_ms"] = {median(ms), "ms"};
  }
}

}  // namespace perfbench
