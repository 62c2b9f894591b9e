// Unit tests for the cluster simulator: topologies, memory tracking, logical
// clocks, and the SPMD launcher.

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/fault.hpp"
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

TEST(Cluster, RanksSplitTheOpenMpTeam) {
  // Ranks running side by side share the cores: each gets the hardware
  // threads divided by the ranks (or workers) at once, never more than the
  // caller's own team, and the caller's setting is left as it was.
  const int caller = omp_get_max_threads();
  const int want = std::max(1, std::min(caller, omp_get_num_procs() / 4));
  for (const auto backend :
       {sim::SimBackend::kThreads, sim::SimBackend::kTasks}) {
    sim::Cluster cluster(sim::Topology::uniform(4, 1e9));
    cluster.set_backend(backend);
    cluster.set_workers(4);  // tasks: four workers, so four ranks at once
    std::vector<int> team(4, 0);
    cluster.run([&](int rank) {
      team[static_cast<std::size_t>(rank)] = omp_get_max_threads();
    });
    for (int t : team) EXPECT_EQ(t, want);
    EXPECT_EQ(omp_get_max_threads(), caller);
  }
}

TEST(AbortableBarrier, WaitAllOutlastsAnAbort) {
  // The barriers after a collective's publish: an abort must not release a
  // member before every member arrived, or it would unwind and free a
  // buffer its peers still read.
  sim::FaultState fs;
  sim::AbortableBarrier barrier(2, &fs);
  std::atomic<bool> released{false};
  std::thread member([&] {
    barrier.arrive_and_wait_all();
    released = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fs.abort(1, "rank 1: injected", /*device_death=*/false);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(released.load());  // woken by the abort, still waiting
  barrier.arrive_and_wait_all();
  member.join();
  EXPECT_TRUE(released.load());
  // The abortable arrival (a publish) still throws at once.
  EXPECT_THROW(barrier.arrive_and_wait(), sim::RendezvousAborted);
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
