// Unit tests for the cluster simulator: topologies, memory tracking, logical
// clocks, and the SPMD launcher.

#include <gtest/gtest.h>

#include <atomic>

#include "sim/cluster.hpp"
#include "sim/memory.hpp"
#include "sim/topology.hpp"

namespace sim = ca::sim;

TEST(Topology, SystemIFullyConnected) {
  auto topo = sim::Topology::system_i();
  EXPECT_EQ(topo.num_devices(), 8);
  EXPECT_EQ(topo.num_nodes(), 1);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(topo.bandwidth(i, j), 184.0e9);
      }
    }
  }
}

TEST(Topology, SystemIIAdjacentPairsOnly) {
  auto topo = sim::Topology::system_ii();
  EXPECT_DOUBLE_EQ(topo.bandwidth(0, 1), 184.0e9);  // NVLink pair
  EXPECT_DOUBLE_EQ(topo.bandwidth(2, 3), 184.0e9);
  EXPECT_DOUBLE_EQ(topo.bandwidth(1, 2), 15.0e9);  // PCIe
  EXPECT_DOUBLE_EQ(topo.bandwidth(0, 7), 15.0e9);
}

TEST(Topology, SystemIIINodeStructure) {
  auto topo = sim::Topology::system_iii();
  EXPECT_EQ(topo.num_devices(), 64);
  EXPECT_EQ(topo.gpus_per_node(), 4);
  EXPECT_EQ(topo.num_nodes(), 16);
  EXPECT_DOUBLE_EQ(topo.bandwidth(0, 3), 150.0e9);  // same node
  EXPECT_DOUBLE_EQ(topo.bandwidth(0, 4), 25.0e9);   // cross node (IB HDR)
}

TEST(Topology, SystemIVSingleGpuNodes) {
  auto topo = sim::Topology::system_iv();
  EXPECT_EQ(topo.num_devices(), 64);
  EXPECT_EQ(topo.gpus_per_node(), 1);
  EXPECT_EQ(topo.gpu().name, "P100-16GB");
  EXPECT_EQ(topo.gpu().memory_bytes, 16 * sim::kGiB);
}

TEST(Topology, RingBottleneckFindsSlowestLink) {
  auto topo = sim::Topology::system_ii();
  const std::vector<int> nvlink_pair{0, 1};
  EXPECT_DOUBLE_EQ(topo.ring_bottleneck(nvlink_pair), 184.0e9);
  const std::vector<int> four{0, 1, 2, 3};  // 1-2 and 3-0 are PCIe
  EXPECT_DOUBLE_EQ(topo.ring_bottleneck(four), 15.0e9);
}

TEST(Memory, AllocFreePeak) {
  sim::MemoryTracker m("t", 1000);
  m.alloc(400);
  m.alloc(300);
  EXPECT_EQ(m.current(), 700);
  EXPECT_EQ(m.peak(), 700);
  m.free(500);
  EXPECT_EQ(m.current(), 200);
  EXPECT_EQ(m.peak(), 700);
  m.alloc(100);
  EXPECT_EQ(m.peak(), 700);  // peak unchanged
  EXPECT_EQ(m.available(), 700);
}

TEST(Memory, OomThrowsWithDiagnostics) {
  sim::MemoryTracker m("gpu0", 1000);
  m.alloc(900);
  try {
    m.alloc(200);
    FAIL() << "expected OomError";
  } catch (const sim::OomError& e) {
    EXPECT_EQ(e.requested(), 200);
    EXPECT_EQ(e.in_use(), 900);
    EXPECT_EQ(e.capacity(), 1000);
  }
  EXPECT_EQ(m.current(), 900);  // failed alloc not recorded
}

TEST(Memory, UnlimitedWhenNoCapacity) {
  sim::MemoryTracker m("host");
  m.alloc(std::int64_t{1} << 50);
  EXPECT_EQ(m.current(), std::int64_t{1} << 50);
}

TEST(Memory, FreeClampsAtZero) {
  sim::MemoryTracker m;
  m.alloc(10);
  m.free(100);
  EXPECT_EQ(m.current(), 0);
}

TEST(Memory, ScopedAllocReleasesOnExit) {
  sim::MemoryTracker m("t", 100);
  {
    sim::ScopedAlloc a(m, 60);
    EXPECT_EQ(m.current(), 60);
    sim::ScopedAlloc b = std::move(a);
    EXPECT_EQ(m.current(), 60);  // move does not double-count
  }
  EXPECT_EQ(m.current(), 0);
  EXPECT_EQ(m.peak(), 60);
}

TEST(Device, ComputeAdvancesClock) {
  sim::Device d(0, sim::a100_80gb());
  d.compute_fp32(120e12);  // exactly one second at A100 fp32 rate
  EXPECT_NEAR(d.clock(), 1.0, 1e-9);
  d.compute_fp16(250e12);
  EXPECT_NEAR(d.clock(), 2.0, 1e-9);
}

TEST(Cluster, SpmdRunsEveryRank) {
  sim::Cluster cluster(sim::Topology::uniform(4, 1e9));
  std::atomic<int> sum{0};
  cluster.run([&](int rank) { sum += rank + 1; });
  EXPECT_EQ(sum.load(), 10);
}

TEST(Cluster, RethrowsRankException) {
  sim::Cluster cluster(sim::Topology::uniform(3, 1e9));
  EXPECT_THROW(
      cluster.run([](int rank) {
        if (rank == 1) throw std::runtime_error("rank 1 failed");
      }),
      std::runtime_error);
}

TEST(Cluster, StatsAggregation) {
  sim::Cluster cluster(sim::Topology::uniform(2, 1e9));
  cluster.device(0).advance_clock(1.5);
  cluster.device(1).advance_clock(2.5);
  cluster.device(0).add_bytes_sent(100);
  cluster.device(1).add_bytes_sent(50);
  EXPECT_DOUBLE_EQ(cluster.max_clock(), 2.5);
  EXPECT_EQ(cluster.total_bytes_sent(), 150);
  cluster.reset_stats();
  EXPECT_DOUBLE_EQ(cluster.max_clock(), 0.0);
  EXPECT_EQ(cluster.total_bytes_sent(), 0);
}

TEST(Cluster, HostMemoryDefaultsTo512GiB) {
  sim::Cluster cluster(sim::Topology::system_ii());
  EXPECT_EQ(cluster.host_mem().capacity(), 512 * sim::kGiB);
}
