// Figures 9 & 10: interconnect characterization of Systems I and II — the
// NCCL-bandwidth-test analogue (broadcast of 125 MB) run on the topology
// model: per-pair bandwidth and collective bus bandwidth over GPU groups.

#include "bench_common.hpp"
#include "collective/cost.hpp"

using namespace ca;

namespace {

constexpr std::int64_t kPayload = 125 * 1000 * 1000;  // 125 MB as in Fig 10

void pair_bandwidth(const sim::Topology& topo) {
  bench::header("Figure 10a: pair bandwidth — " + topo.name());
  std::printf("%-10s", "GPU");
  for (int j = 0; j < topo.num_devices(); ++j) std::printf("%-8d", j);
  std::printf("\n");
  for (int i = 0; i < topo.num_devices(); ++i) {
    std::printf("%-10d", i);
    for (int j = 0; j < topo.num_devices(); ++j) {
      if (i == j) {
        std::printf("%-8s", "-");
      } else {
        const double t = collective::p2p_time(topo, i, j, kPayload);
        std::printf("%-8.0f", static_cast<double>(kPayload) / t / 1e9);
      }
    }
    std::printf("\n");
  }
  std::printf("(GB/s; the paper measures 184 GB/s NVLink pairs and 15 GB/s "
              "PCIe pairs on System II)\n");
}

void collective_bandwidth(const sim::Topology& topo) {
  bench::header("Figure 10b: broadcast bus bandwidth over GPU groups — " +
                topo.name());
  std::printf("%-12s %-14s %-14s\n", "#GPUs", "time (ms)", "bus BW (GB/s)");
  for (int n : {2, 4, 8}) {
    std::vector<int> ranks;
    for (int r = 0; r < n; ++r) ranks.push_back(r);
    const double t = collective::collective_time(
        collective::Op::kBroadcast, collective::Algo::kChunked, topo, ranks,
        kPayload);
    std::printf("%-12d %-14.2f %-14.0f\n", n, 1e3 * t,
                static_cast<double>(kPayload) / t / 1e9);
  }
}

}  // namespace

int main() {
  auto sys1 = sim::Topology::system_i();
  auto sys2 = sim::Topology::system_ii();

  std::printf("Figure 9: topology presets\n");
  std::printf("  System I : every GPU pair fully connected by NVLink\n");
  std::printf("  System II: NVLink only between adjacent pairs (0-1, 2-3, "
              "4-5, 6-7), PCIe otherwise\n");

  pair_bandwidth(sys1);
  pair_bandwidth(sys2);
  collective_bandwidth(sys1);
  collective_bandwidth(sys2);

  std::printf("\n(the System II collapse from 184 GB/s to ~15 GB/s once the "
              "group spans a PCIe link is the Figure 10 effect that makes 1D "
              "tensor parallelism uncompetitive there)\n");
  return 0;
}
