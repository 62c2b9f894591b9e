// Observability cost + calibration + straggler gates. Three sections, all
// enforced with a non-zero exit so CI fails on regression:
//
//  1. Overhead: a DP training run with metrics ON must stay within 2% of the
//     identical run with metrics OFF, and the OFF run's simulated clocks must
//     be bit-identical to a never-enabled baseline (the disabled path is one
//     predictable branch).
//  2. Calibration: measured collective time vs the cost-model prediction per
//     (System I-IV topology, algorithm) at >= 1 MiB must agree within 25%.
//     On a clean simulator the two are exactly equal; this gate pins the
//     settle()/cost.cpp join so a drift between charger and model is caught.
//  3. Straggler detection: a seeded compute straggler must be flagged on
//     every step (zero misses), and a clean 512-rank fiber run must raise
//     zero false alarms.
//
// Writes BENCH_metrics.json (rows prefixed wall_/suffixed _pct are machine
// wall-time; the rest are deterministic simulated values), metrics.prom
// (Prometheus text dump of the overhead run), and
// calibration_system_{i,ii,iii,iv}.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "nn/layers.hpp"
#include "obs/metrics.hpp"
#include "optim/optimizer.hpp"
#include "tensor/ops.hpp"

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace core = ca::core;
namespace sim = ca::sim;
namespace col = ca::collective;
namespace obs = ca::obs;
namespace engine = ca::engine;

namespace {

constexpr int kWorld = 8;
constexpr int kBlocks = 6;
constexpr std::int64_t kHidden = 96;
constexpr std::int64_t kBatch = 8;
constexpr int kSteps = 12;
constexpr int kRepeats = 5;  // min-of-N wall timing

enum class Metrics { kNever, kOff, kOn };

struct TrainResult {
  double wall_ns = 0.0;   // min over repeats of the SPMD region wall time
  double sim_s = 0.0;     // simulated wall (must not depend on metrics)
  float last_loss = 0.0f;
};

/// The overhead workload: kWorld-way DP training of a host-math MLP. The
/// metric emit points fire on every step (engine timings, bucket flushes,
/// per-collective comm stats), so the measured delta is the full hot-path
/// instrumentation cost. The kOn run also writes metrics.prom.
TrainResult run_training(Metrics mode) {
  core::Config cfg;
  cfg.data_parallel_size = kWorld;
  bench::World w(sim::Topology::uniform(kWorld, 100e9), cfg);
  if (mode == Metrics::kOn) w.cluster.enable_metrics();
  if (mode == Metrics::kOff) {
    w.cluster.enable_metrics();  // create, then detach: emitters see nullptr
    w.cluster.disable_metrics();
  }
  const auto x = t::randn(t::Shape{kBatch, kHidden}, 11);
  std::vector<std::int64_t> labels(kBatch);
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<std::int64_t>(i % kHidden);

  TrainResult res;
  res.wall_ns = 1e30;
  for (int rep = 0; rep < kRepeats; ++rep) {
    w.cluster.reset_stats();
    std::vector<float> losses(kWorld, 0.0f);
    const auto t0 = std::chrono::steady_clock::now();
    w.cluster.run([&](int g) {
      nn::Sequential net;
      for (int b = 0; b < kBlocks; ++b) {
        net.add(std::make_unique<nn::Linear>(
            "l" + std::to_string(b), kHidden, kHidden,
            300u + static_cast<unsigned>(b)));
        net.add(std::make_unique<nn::Gelu>());
      }
      auto eng = engine::initialize(
          w.env(g), net,
          std::make_unique<ca::optim::Adam>(net.parameters(),
                                            ca::optim::Adam::Hyper{1e-3f}));
      for (int s = 0; s < kSteps; ++s) {
        eng->zero_grad();
        auto out = eng->forward(x);
        losses[static_cast<std::size_t>(g)] = eng->criterion(out, labels);
        eng->backward();
        eng->step();
      }
    });
    const auto t1 = std::chrono::steady_clock::now();
    res.wall_ns = std::min(
        res.wall_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
    res.sim_s = w.cluster.max_clock();
    res.last_loss = losses[0];
  }
  if (mode == Metrics::kOn) {
    obs::write_prometheus(*w.cluster.metrics(), "metrics.prom");
    std::printf("wrote Prometheus dump to metrics.prom\n");
  }
  return res;
}

struct CalibResult {
  double worst_rel_err_1mib = 0.0;  // over algos, at >= 1 MiB
  int rows = 0;
};

/// Sweep forced algorithms x message sizes over one topology's world group
/// using the cost-model-only twins, then join measured vs predicted.
CalibResult run_calibration(const std::string& name, sim::Topology topo,
                            bench::JsonReport& report) {
  CalibResult res;
  std::vector<obs::CalibrationRow> all_rows;
  for (col::Algo algo :
       {col::Algo::kChunked, col::Algo::kRing, col::Algo::kHierarchical}) {
    core::Config cfg;
    cfg.data_parallel_size = topo.num_devices();
    bench::World w(topo, cfg);
    // Forced hierarchical falls back to chunked where the world has no
    // two-level plan (one node): that pass would only repeat chunked's rows.
    if (algo == col::Algo::kHierarchical && !w.backend.world().plan().viable()) {
      continue;
    }
    w.backend.set_forced_algo(algo);
    auto& reg = w.cluster.enable_metrics();
    w.cluster.run([&](int g) {
      for (std::int64_t bytes = 256 << 10; bytes <= (64 << 20); bytes *= 2) {
        w.backend.world().account_all_reduce(g, bytes);
      }
    });
    const auto rows = obs::calibrate(reg);
    for (const auto& row : rows) {
      res.worst_rel_err_1mib =
          std::max(res.worst_rel_err_1mib, row.max_rel_err_model_1mib);
      report.add("calib_rel_err_model_" + row.algo + "_" + name,
                 name + "_" + std::to_string(topo.num_devices()) + "ranks",
                 row.max_rel_err_model_1mib * 100.0, 0.0);
      report.add("calib_fit_alpha_ns_" + row.algo + "_" + name,
                 row.group + "_all_reduce", row.alpha_s * 1e9, 0.0);
      std::printf(
          "  %-12s %-14s %d sizes | model err %6.2f%% (>=1MiB) | fit alpha "
          "%8.2f us beta %7.3f ns/KiB (err %5.1f%%)\n",
          name.c_str(), row.algo.c_str(), row.points,
          row.max_rel_err_model_1mib * 100.0, row.alpha_s * 1e6,
          row.beta_s_per_b * 1e9 * 1024.0, row.max_rel_err_fit * 100.0);
      all_rows.push_back(row);
    }
    res.rows += static_cast<int>(rows.size());
  }
  obs::write_calibration_json(all_rows, name, "calibration_" + name + ".json");
  return res;
}

struct StragglerResult {
  int misses = 0;        // seeded straggler steps that went unflagged
  int wrong_rank = 0;    // flags pointing at a non-seeded rank
  int false_alarms = 0;  // flags on the clean run
};

StragglerResult run_straggler_gate() {
  StragglerResult res;
  const int steps = 6;

  // seeded: rank 5 of 8 computes 4x slower for the whole run
  {
    sim::Cluster cluster(sim::Topology::uniform(8, 100e9));
    sim::FaultPlan plan;
    plan.straggler(/*rank=*/5, 0.0, 1e9, /*factor=*/4.0);
    cluster.install_faults(plan);
    auto& reg = cluster.enable_metrics();
    cluster.run([&](int g) {
      for (int s = 0; s < steps; ++s) {
        const double t0 = cluster.device(g).clock();
        cluster.device(g).compute_fp32(2e9, "step");
        cluster.device(g).metrics()->record_series(
            "engine.compute_s", s, cluster.device(g).clock() - t0);
      }
    });
    const auto events = obs::detect_stragglers(reg, "engine.compute_s");
    std::vector<bool> flagged(static_cast<std::size_t>(steps), false);
    for (const auto& e : events) {
      if (e.rank == 5) {
        flagged[static_cast<std::size_t>(e.step)] = true;
      } else {
        ++res.wrong_rank;
      }
    }
    for (bool f : flagged) {
      if (!f) ++res.misses;
    }
  }

  // clean 512-rank fiber run: zero alarms allowed
  {
    sim::Cluster cluster(sim::Topology::uniform(512, 100e9));
    cluster.set_backend(sim::SimBackend::kTasks);
    auto& reg = cluster.enable_metrics();
    cluster.run([&](int g) {
      for (int s = 0; s < steps; ++s) {
        const double t0 = cluster.device(g).clock();
        cluster.device(g).compute_fp32(2e9, "step");
        cluster.device(g).metrics()->record_series(
            "engine.compute_s", s, cluster.device(g).clock() - t0);
      }
    });
    res.false_alarms = static_cast<int>(
        obs::detect_stragglers(reg, "engine.compute_s").size());
  }
  return res;
}

}  // namespace

int main() {
  bench::JsonReport report("BENCH_metrics.json");
  const std::string shape = "blocks" + std::to_string(kBlocks) + "_hidden" +
                            std::to_string(kHidden) + "_world" +
                            std::to_string(kWorld);
  bool ok = true;

  bench::header("metrics overhead: identical DP training, off vs on");
  const auto base = run_training(Metrics::kNever);
  const auto off = run_training(Metrics::kOff);
  const auto on = run_training(Metrics::kOn);
  const double on_pct = (on.wall_ns - off.wall_ns) / off.wall_ns * 100.0;
  const double off_pct = (off.wall_ns - base.wall_ns) / base.wall_ns * 100.0;
  const bool sim_identical =
      base.sim_s == off.sim_s && off.sim_s == on.sim_s &&
      base.last_loss == off.last_loss && off.last_loss == on.last_loss;
  std::printf(
      "wall: never %8.0f us | off %8.0f us (%+5.2f%%) | on %8.0f us "
      "(%+5.2f%%) | sim clock + losses %s\n",
      base.wall_ns / 1e3, off.wall_ns / 1e3, off_pct, on.wall_ns / 1e3, on_pct,
      sim_identical ? "bit-identical" : "DIVERGED");
  report.add("wall_step_never_ns", shape, base.wall_ns / kSteps, 0.0);
  report.add("wall_step_off_ns", shape, off.wall_ns / kSteps, 0.0);
  report.add("wall_step_on_ns", shape, on.wall_ns / kSteps, 0.0);
  report.add("metrics_overhead_on_pct", shape, on_pct, 0.0);
  report.add("metrics_sim_wall_s", shape, on.sim_s * 1e9, 0.0);
  if (on_pct >= 2.0) {
    std::fprintf(stderr, "FAIL: metrics-on overhead %.2f%% >= 2%%\n", on_pct);
    ok = false;
  }
  if (!sim_identical) {
    std::fprintf(stderr,
                 "FAIL: metrics changed simulated clocks or numerics\n");
    ok = false;
  }
  bench::header("cost-model calibration: measured vs predicted, Systems I-IV");
  const std::pair<std::string, sim::Topology> systems[] = {
      {"system_i", sim::Topology::system_i()},
      {"system_ii", sim::Topology::system_ii()},
      {"system_iii", sim::Topology::system_iii()},
      {"system_iv", sim::Topology::system_iv()},
  };
  for (const auto& [name, topo] : systems) {
    const auto calib = run_calibration(name, topo, report);
    if (calib.worst_rel_err_1mib >= 0.25) {
      std::fprintf(stderr, "FAIL: %s calibration error %.1f%% >= 25%%\n",
                   name.c_str(), calib.worst_rel_err_1mib * 100.0);
      ok = false;
    }
  }

  bench::header("straggler detector: seeded catch + clean 512-rank run");
  const auto straggler = run_straggler_gate();
  std::printf(
      "seeded rank 5 of 8: %d missed steps, %d wrong-rank flags | clean 512 "
      "ranks: %d false alarms\n",
      straggler.misses, straggler.wrong_rank, straggler.false_alarms);
  report.add("straggler_missed_steps", "world8_factor4",
             static_cast<double>(straggler.misses), 0.0);
  report.add("straggler_wrong_rank_flags", "world8_factor4",
             static_cast<double>(straggler.wrong_rank), 0.0);
  report.add("straggler_false_alarms", "world512_clean",
             static_cast<double>(straggler.false_alarms), 0.0);
  if (straggler.misses != 0 || straggler.wrong_rank != 0 ||
      straggler.false_alarms != 0) {
    std::fprintf(stderr, "FAIL: straggler detector gate\n");
    ok = false;
  }

  report.write();
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
