// Collective-algorithm sweep: modeled all-reduce time per algorithm
// (chunked / ring / hierarchical / single-root) across the four paper systems
// and message sizes, plus a small functional run on a two-node System III
// cluster comparing forced-chunked vs forced-hierarchical vs auto-selected
// wall/simulated time. Writes BENCH_collective_algos.json and exits non-zero
// when the hierarchical algorithm fails to beat single-level chunked for
// large messages on the multi-node systems, or when the selector does not
// pick it automatically.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "collective/algo.hpp"
#include "collective/cost.hpp"

namespace col = ca::collective;
namespace sim = ca::sim;

namespace {

constexpr col::Algo kAlgos[] = {col::Algo::kChunked, col::Algo::kRing,
                                col::Algo::kHierarchical,
                                col::Algo::kSingleRoot};

std::string mib_label(std::int64_t bytes) {
  if (bytes >= (1 << 20))
    return std::to_string(bytes >> 20) + "MiB";
  return std::to_string(bytes >> 10) + "KiB";
}

struct CostCheck {
  bool hier_beats_chunked = true;
  bool selector_picks_cheapest = true;
};

/// Pure cost-model sweep over one topology (no rank threads): modeled
/// all-reduce time per algorithm over the full-machine DP group.
CostCheck cost_sweep(const sim::Topology& topo, bench::JsonReport& report,
                     bool expect_hier_wins) {
  std::vector<int> ranks(static_cast<std::size_t>(topo.num_devices()));
  std::iota(ranks.begin(), ranks.end(), 0);
  const auto plan = col::plan_two_level(topo, ranks);
  const col::AlgoSelector selector;

  std::printf("\n%s: %d devices (%d nodes x %d), two-level plan %s\n",
              topo.name().c_str(), topo.num_devices(), topo.num_nodes(),
              topo.gpus_per_node(),
              plan.viable() ? (plan.by_node ? "by-node" : "virtual") : "n/a");
  std::printf("  %-8s %12s %12s %12s %12s  %s\n", "bytes", "chunked", "ring",
              "hierarchical", "single_root", "selected");

  CostCheck check;
  for (const std::int64_t bytes :
       {std::int64_t{4} << 10, std::int64_t{256} << 10, std::int64_t{4} << 20,
        std::int64_t{64} << 20}) {
    double t[4] = {};
    std::printf("  %-8s", mib_label(bytes).c_str());
    for (int a = 0; a < 4; ++a) {
      t[a] = col::collective_time(col::Op::kAllReduce, kAlgos[a], topo, ranks,
                                  bytes, plan);
      std::printf(" %9.1f us", t[a] * 1e6);
      report.add("ar_cost_" + std::string(col::algo_name(kAlgos[a])),
                 topo.name() + "_p" + std::to_string(topo.num_devices()) +
                     "_" + mib_label(bytes),
                 t[a] * 1e9, 0.0);
    }
    const auto picked =
        selector.select(col::Op::kAllReduce, bytes, topo, ranks, plan);
    std::printf("  %s\n", col::algo_name(picked));

    if (expect_hier_wins && bytes >= (std::int64_t{4} << 20)) {
      if (!(t[2] < t[0])) check.hier_beats_chunked = false;
    }
    // The cost-ranked selector must land on the cheapest schedulable
    // algorithm whenever the payload clears the candidate gates — this is
    // what pins the System IV 64 MiB crossover, where ring beats the
    // hierarchy a static threshold table used to pick.
    if (bytes >= (std::int64_t{4} << 20)) {
      double best = t[0];  // chunked
      if (plan.viable()) best = std::min(best, t[2]);
      best = std::min(best, t[1]);  // ring (>= 1 MiB gate cleared)
      const int pi = picked == col::Algo::kChunked  ? 0
                     : picked == col::Algo::kRing   ? 1
                     : picked == col::Algo::kHierarchical ? 2
                                                          : 3;
      if (t[pi] > best) check.selector_picks_cheapest = false;
    }
  }
  return check;
}

/// Functional all-reduce on a live two-node System III cluster: real data
/// movement through the unified schedule engine under a forced (or auto)
/// algorithm. Returns {simulated seconds per iter, wall ns per iter}.
struct FuncResult {
  double sim_s = 0.0;
  double wall_ns = 0.0;
  col::Algo auto_pick = col::Algo::kChunked;
};

FuncResult run_functional(std::optional<col::Algo> forced) {
  constexpr std::int64_t kElems = 1 << 20;  // 4 MiB per rank
  constexpr int kIters = 5;
  sim::Cluster cluster(sim::Topology::system_iii(2));  // 2 nodes x 4
  col::Backend backend(cluster);
  backend.set_forced_algo(forced);
  auto& g = backend.world();

  FuncResult res;
  res.auto_pick = g.algo_for(col::Op::kAllReduce, kElems * 4);
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run([&](int grank) {
    std::vector<float> buf(static_cast<std::size_t>(kElems));
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf[i] = std::sin(0.001f * static_cast<float>(i) +
                        static_cast<float>(grank));
    for (int it = 0; it < kIters; ++it)
      g.all_reduce(grank, buf, 1.0f / static_cast<float>(g.size()));
  });
  const auto t1 = std::chrono::steady_clock::now();
  res.sim_s = cluster.max_clock() / kIters;
  res.wall_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
  return res;
}

}  // namespace

int main() {
  bench::header("collective algorithms: cost sweep + functional comparison");
  bench::JsonReport report("BENCH_collective_algos.json");

  cost_sweep(sim::Topology::system_i(), report, /*expect_hier_wins=*/false);
  cost_sweep(sim::Topology::system_ii(), report, /*expect_hier_wins=*/false);
  const auto c3 =
      cost_sweep(sim::Topology::system_iii(16), report, /*expect_hier_wins=*/true);
  const auto c4 =
      cost_sweep(sim::Topology::system_iv(64), report, /*expect_hier_wins=*/true);

  bench::header("functional: 4 MiB all-reduce on system_iii(2), world 8");
  const auto chunked = run_functional(col::Algo::kChunked);
  const auto hier = run_functional(col::Algo::kHierarchical);
  const auto autoa = run_functional(std::nullopt);
  std::printf("  forced chunked     : sim %8.1f us | wall %8.0f us\n",
              chunked.sim_s * 1e6, chunked.wall_ns / 1e3);
  std::printf("  forced hierarchical: sim %8.1f us | wall %8.0f us\n",
              hier.sim_s * 1e6, hier.wall_ns / 1e3);
  std::printf("  auto (%s): sim %8.1f us | wall %8.0f us\n",
              col::algo_name(autoa.auto_pick), autoa.sim_s * 1e6,
              autoa.wall_ns / 1e3);
  report.add("ar_func_sim_us_chunked", "system_iii2_p8_4MiB",
             chunked.sim_s * 1e9, 0.0);
  report.add("ar_func_sim_us_hierarchical", "system_iii2_p8_4MiB",
             hier.sim_s * 1e9, 0.0);
  report.add("ar_func_sim_us_auto", "system_iii2_p8_4MiB", autoa.sim_s * 1e9,
             0.0);
  report.write();

  bool ok = true;
  if (!c3.hier_beats_chunked || !c4.hier_beats_chunked) {
    std::fprintf(stderr,
                 "FAIL: hierarchical not faster than chunked for large "
                 "messages on system_iii/system_iv\n");
    ok = false;
  }
  if (!c3.selector_picks_cheapest || !c4.selector_picks_cheapest) {
    std::fprintf(stderr,
                 "FAIL: selector did not pick the cheapest candidate "
                 "algorithm on the multi-node DP groups\n");
    ok = false;
  }
  if (!(hier.sim_s < chunked.sim_s)) {
    std::fprintf(stderr,
                 "FAIL: functional hierarchical all-reduce not faster than "
                 "chunked on system_iii(2)\n");
    ok = false;
  }
  if (autoa.auto_pick != col::Algo::kHierarchical) {
    std::fprintf(stderr,
                 "FAIL: auto selection picked %s for the 4 MiB multi-node "
                 "all-reduce\n",
                 col::algo_name(autoa.auto_pick));
    ok = false;
  }
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
