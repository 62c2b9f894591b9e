// Backend A/B matrix for the fiber scheduler (DESIGN.md section 8): the
// tasks backend must be observationally identical to the thread-per-rank
// oracle — bit-identical losses, simulated clocks, interconnect bytes, and
// trace summaries — across world sizes, worker counts, and fault scenarios,
// plus a 1024-rank smoke test with a wall-time ceiling, fiber stacks reused
// across back-to-back regions (clocks unchanged, guard pages kept), and the
// knob-parsing surface (CA_SIM_BACKEND / CA_SIM_WORKERS / sim.backend /
// sim.workers).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "collective/backend.hpp"
#include "collective/cost_replay.hpp"
#include "collective/p2p.hpp"
#include "core/launch.hpp"
#include "obs/report.hpp"
#include "scoped_env.hpp"
#include "sim/cluster.hpp"
#include "sim/scheduler.hpp"

namespace col = ca::collective;
namespace core = ca::core;
namespace obs = ca::obs;
namespace sim = ca::sim;

namespace {

/// Everything one run observes; compared bitwise between backends.
struct RunResult {
  std::vector<float> losses;        // one per rank
  std::vector<double> clocks;       // per-device simulated clock after run
  std::vector<std::int64_t> bytes;  // per-device interconnect bytes
  obs::TraceReport report;
  std::vector<RunResult> cost_runs;  // the cost-only clusters, in order
};

/// Cost-only accounting on a multi-node topology: account_* calls on the
/// world group and on strided "column" subgroups at sizes that walk the
/// selector through single-root, chunked, hierarchical and ring, so every
/// branch of the group cost profile is charged. Rank-dependent compute
/// between calls makes the max-of-clocks start matter.
RunResult run_cost_workload(sim::Topology topo, sim::SimBackend backend,
                            int workers) {
  sim::Cluster cluster(std::move(topo));
  cluster.set_backend(backend);
  cluster.set_workers(workers);
  cluster.enable_tracing();
  col::Backend be(cluster);
  const int world = cluster.world_size();
  std::vector<col::Group*> cols;
  for (int c = 0; c < 2; ++c) {
    std::vector<int> ranks;
    for (int r = c; r < world; r += 2) ranks.push_back(r);
    cols.push_back(&be.create_group(ranks, "col" + std::to_string(c)));
  }

  cluster.run([&](int r) {
    auto& g = be.world();
    auto& column = *cols[static_cast<std::size_t>(r % 2)];
    for (const std::int64_t bytes :
         {std::int64_t{512}, std::int64_t{64} << 10, std::int64_t{1} << 20,
          std::int64_t{64} << 20}) {
      cluster.device(r).advance_clock(1e-6 * static_cast<double>(r + 1));
      g.account_all_reduce(r, bytes);
      g.account_reduce_scatter(r, bytes);
      g.account_all_gather(r, bytes);
      g.account_broadcast(r, bytes);
      g.account_reduce(r, bytes);
      g.account_all_to_all(r, bytes);
      column.account_all_reduce(r, bytes);
      column.account_all_gather(r, bytes);
    }
  });

  RunResult res;
  for (int r = 0; r < world; ++r) {
    res.clocks.push_back(cluster.device(r).clock());
    res.bytes.push_back(cluster.device(r).bytes_sent());
  }
  res.report = obs::summarize(*cluster.tracer());
  return res;
}

/// A mixed workload touching every blocking point the scheduler converts:
/// blocking collectives (rendezvous barriers), deferred async ops waited
/// out of order, and both p2p flavours (async ring + a sync send/recv pair).
RunResult run_workload(int world, sim::SimBackend backend, int workers) {
  sim::Cluster cluster(sim::Topology::uniform(world, 100e9));
  cluster.set_backend(backend);
  cluster.set_workers(workers);
  cluster.enable_tracing();
  col::Backend be(cluster);
  auto& g = be.world();

  std::vector<std::unique_ptr<col::P2pChannel>> ring;
  for (int r = 0; r < world; ++r) {
    ring.push_back(
        std::make_unique<col::P2pChannel>(cluster, r, (r + 1) % world));
  }

  RunResult res;
  res.losses.assign(static_cast<std::size_t>(world), 0.0f);
  cluster.run([&](int r) {
    const auto n = static_cast<std::size_t>(2048);
    std::vector<float> buf(n);
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = std::sin(0.37f * static_cast<float>(i + 1)) *
               (1.0f + 0.13f * static_cast<float>(r));
    }
    g.all_reduce(r, buf, 1.0f / static_cast<float>(world));

    // Deferred async ops waited out of issue order (drain path).
    std::vector<float> a(512, 1.0f + static_cast<float>(r));
    std::vector<float> b(512, 2.0f);
    auto h1 = g.all_reduce_async(r, a);
    auto h2 = g.all_reduce_async(r, b);
    cluster.device(r).advance_clock(1e-4);
    h2.wait();
    h1.wait();

    // p2p ring: buffered send right, blocking recv left.
    std::vector<float> out(64, static_cast<float>(r));
    std::vector<float> in(64);
    ring[static_cast<std::size_t>(r)]->send_async(out);
    ring[static_cast<std::size_t>((r + world - 1) % world)]->recv(in);

    // And one synchronous (rendezvous) pair between ranks 0 and 1, the
    // do_send blocking path.
    if (r == 0) ring[0]->send(out);
    if (r == 1) ring[0]->recv(in);

    // reduce_scatter + all_gather round trip.
    std::vector<float> rs_in(static_cast<std::size_t>(world) * 128);
    for (std::size_t i = 0; i < rs_in.size(); ++i) {
      rs_in[i] = buf[i % n] + static_cast<float>(r) * 0.01f;
    }
    std::vector<float> rs_out(128);
    g.reduce_scatter(r, rs_in, rs_out);
    std::vector<float> ag_out(static_cast<std::size_t>(world) * 128);
    g.all_gather(r, rs_out, ag_out);

    float loss = 0.0f;
    for (float v : buf) loss += v;
    for (float v : a) loss += v * 0.5f;
    for (float v : in) loss += v * 0.25f;
    for (float v : ag_out) loss += v * 0.125f;
    res.losses[static_cast<std::size_t>(r)] = loss;
  });

  for (int r = 0; r < world; ++r) {
    res.clocks.push_back(cluster.device(r).clock());
    res.bytes.push_back(cluster.device(r).bytes_sent());
  }
  res.report = obs::summarize(*cluster.tracer());
  res.cost_runs.push_back(
      run_cost_workload(sim::Topology::system_iii(2), backend, workers));
  res.cost_runs.push_back(
      run_cost_workload(sim::Topology::system_iv(world), backend, workers));
  return res;
}

void expect_identical(const RunResult& oracle, const RunResult& probe,
                      const std::string& label) {
  ASSERT_EQ(oracle.losses.size(), probe.losses.size()) << label;
  for (std::size_t r = 0; r < oracle.losses.size(); ++r) {
    // Bitwise, not approximate: the scheduler must not change the fold order.
    EXPECT_EQ(std::memcmp(&oracle.losses[r], &probe.losses[r], sizeof(float)),
              0)
        << label << " loss differs on rank " << r;
  }
  ASSERT_EQ(oracle.clocks.size(), probe.clocks.size()) << label;
  for (std::size_t r = 0; r < oracle.clocks.size(); ++r) {
    EXPECT_EQ(oracle.clocks[r], probe.clocks[r])
        << label << " clock differs on rank " << r;
    EXPECT_EQ(oracle.bytes[r], probe.bytes[r])
        << label << " bytes differ on rank " << r;
  }
  EXPECT_EQ(oracle.report.wall, probe.report.wall) << label;
  EXPECT_EQ(oracle.report.bubble_fraction, probe.report.bubble_fraction)
      << label;
  EXPECT_EQ(oracle.report.comm_overlap_fraction,
            probe.report.comm_overlap_fraction)
      << label;
  EXPECT_EQ(oracle.report.comm_bytes, probe.report.comm_bytes) << label;
  EXPECT_EQ(oracle.report.peak_mem, probe.report.peak_mem) << label;
  ASSERT_EQ(oracle.report.ranks.size(), probe.report.ranks.size()) << label;
  for (std::size_t r = 0; r < oracle.report.ranks.size(); ++r) {
    EXPECT_EQ(oracle.report.ranks[r].wall, probe.report.ranks[r].wall)
        << label << " rank " << r;
    EXPECT_EQ(oracle.report.ranks[r].busy, probe.report.ranks[r].busy)
        << label << " rank " << r;
    EXPECT_EQ(oracle.report.ranks[r].seconds, probe.report.ranks[r].seconds)
        << label << " rank " << r;
  }
  ASSERT_EQ(oracle.cost_runs.size(), probe.cost_runs.size()) << label;
  for (std::size_t i = 0; i < oracle.cost_runs.size(); ++i) {
    expect_identical(oracle.cost_runs[i], probe.cost_runs[i],
                     label + " cost run " + std::to_string(i));
  }
}

}  // namespace

// ---- A/B matrix -------------------------------------------------------------

TEST(BackendAB, TasksMatchesThreadsBitwiseAcrossWorldsAndWorkers) {
  for (const int world : {4, 8, 16}) {
    const auto oracle = run_workload(world, sim::SimBackend::kThreads, 0);
    // Worker-count sweep: a single worker (pure cooperative interleaving),
    // a few, and auto must all produce the oracle's bits.
    for (const int workers : {1, 3, 0}) {
      const auto probe = run_workload(world, sim::SimBackend::kTasks, workers);
      expect_identical(oracle, probe,
                       "world " + std::to_string(world) + " workers " +
                           std::to_string(workers));
    }
  }
}

namespace {

/// Fail-stop scenario observations (shared by both backends).
struct FaultResult {
  int dead_rank = -1;
  std::vector<int> survivors_timed_out;
  std::vector<double> clocks;
};

FaultResult run_fail_stop(sim::SimBackend backend) {
  sim::Cluster cluster(sim::Topology::uniform(6, 100e9));
  cluster.set_backend(backend);
  sim::FaultPlan plan;
  plan.fail_stop_at(2, 0.35);
  plan.watchdog = 0.5;
  cluster.install_faults(plan);
  col::Backend be(cluster);
  auto& world = be.world();

  FaultResult res;
  std::array<bool, 6> timed_out{};
  try {
    cluster.run([&](int g) {
      std::vector<float> buf(256, 1.0f);
      for (;;) {
        cluster.device(g).advance_clock(0.2);
        try {
          world.all_reduce(g, buf);
        } catch (const sim::CommTimeoutError&) {
          timed_out[static_cast<std::size_t>(g)] = true;
          return;
        }
      }
    });
  } catch (const sim::DeviceFailure& e) {
    res.dead_rank = e.rank();
  }
  for (int g = 0; g < 6; ++g) {
    if (timed_out[static_cast<std::size_t>(g)]) {
      res.survivors_timed_out.push_back(g);
    }
    res.clocks.push_back(cluster.device(g).clock());
  }
  return res;
}

/// Transient-comm scenario: collectives inside the fault window back off and
/// retry; everything is symmetric, so both backends see the same delays.
RunResult run_transient(sim::SimBackend backend) {
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  cluster.set_backend(backend);
  sim::FaultPlan plan;
  plan.transient_comm(0.0, 0.4);  // retry_base 0.25: succeeds after backoff
  cluster.install_faults(plan);
  col::Backend be(cluster);
  auto& g = be.world();

  RunResult res;
  res.losses.assign(4, 0.0f);
  cluster.run([&](int r) {
    std::vector<float> buf(1024, 1.0f + static_cast<float>(r));
    for (int it = 0; it < 3; ++it) g.all_reduce(r, buf, 0.25f);
    float loss = 0.0f;
    for (float v : buf) loss += v;
    res.losses[static_cast<std::size_t>(r)] = loss;
  });
  for (int r = 0; r < 4; ++r) {
    res.clocks.push_back(cluster.device(r).clock());
    res.bytes.push_back(cluster.device(r).bytes_sent());
  }
  return res;
}

}  // namespace

TEST(BackendAB, FailStopFaultIdenticalAcrossBackends) {
  const auto oracle = run_fail_stop(sim::SimBackend::kThreads);
  const auto probe = run_fail_stop(sim::SimBackend::kTasks);
  ASSERT_EQ(oracle.dead_rank, 2);
  EXPECT_EQ(probe.dead_rank, oracle.dead_rank);
  EXPECT_EQ(probe.survivors_timed_out, oracle.survivors_timed_out);
  ASSERT_EQ(oracle.survivors_timed_out, (std::vector<int>{0, 1, 3, 4, 5}));
  for (std::size_t r = 0; r < oracle.clocks.size(); ++r) {
    EXPECT_EQ(oracle.clocks[r], probe.clocks[r]) << "rank " << r;
  }
}

TEST(BackendAB, TransientRetryFaultIdenticalAcrossBackends) {
  const auto oracle = run_transient(sim::SimBackend::kThreads);
  const auto probe = run_transient(sim::SimBackend::kTasks);
  for (std::size_t r = 0; r < oracle.losses.size(); ++r) {
    EXPECT_EQ(std::memcmp(&oracle.losses[r], &probe.losses[r], sizeof(float)),
              0)
        << "rank " << r;
    EXPECT_EQ(oracle.clocks[r], probe.clocks[r]) << "rank " << r;
    EXPECT_EQ(oracle.bytes[r], probe.bytes[r]) << "rank " << r;
  }
  // The transient window actually cost sim-time (the retries happened).
  EXPECT_GT(oracle.clocks[0], 0.25);
}

// ---- scale smoke ------------------------------------------------------------

TEST(BackendScale, Smoke1024RankAllReduceUnderWallCeiling) {
  // 1024 fiber ranks — 16x past where thread-per-rank stops being practical —
  // through a real data-moving all-reduce, against a generous wall ceiling
  // (the point is "completes in seconds, not minutes/never").
  constexpr int kWorld = 1024;
  sim::Cluster cluster(sim::Topology::uniform(kWorld, 100e9));
  cluster.set_backend(sim::SimBackend::kTasks);
  col::Backend be(cluster);
  auto& g = be.world();

  std::vector<float> sums(kWorld);
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run([&](int r) {
    std::vector<float> buf(256, 1.0f + static_cast<float>(r % 7));
    g.all_reduce(r, buf, 1.0f / kWorld);
    sums[static_cast<std::size_t>(r)] = buf[0];
  });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Every rank holds the same mean; sim clock advanced; wall under ceiling.
  for (int r = 1; r < kWorld; ++r) {
    ASSERT_EQ(sums[static_cast<std::size_t>(r)], sums[0]) << "rank " << r;
  }
  EXPECT_GT(cluster.max_clock(), 0.0);
  EXPECT_LT(wall, 30.0) << "1024-rank all-reduce took " << wall << " s";
}

// ---- fiber stacks across regions ---------------------------------------------

namespace {

/// One line of /proc/self/maps: [lo, hi) with its permission string.
struct Vma {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::string perms;
};

std::vector<Vma> read_maps() {
  std::ifstream in("/proc/self/maps");
  std::vector<Vma> out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    Vma v;
    char dash = 0;
    ls >> std::hex >> v.lo >> dash >> v.hi >> v.perms;
    out.push_back(v);
  }
  return out;
}

/// A small cost-only program: rank-skewed compute, a live account_* op and
/// a cost-replay flush, so the region's clocks depend on every rank.
void cost_program(sim::Cluster& cluster, col::Backend& be, int r) {
  cluster.device(r).advance_clock(1e-6 * static_cast<double>(r + 1));
  be.world().account_all_reduce(r, 1 << 20);
  col::CostReplay rp(be.world(), r);
  rp.compute(1e9 * static_cast<double>(1 + r % 3));
  rp.collective(be.world(), col::Op::kAllGather, 64 << 10);
  rp.flush();
}

std::vector<double> cost_program_clocks(int world, sim::SimBackend backend,
                                        int workers,
                                        std::vector<std::uintptr_t>* frames) {
  sim::Cluster cluster(sim::Topology::system_iv(world));
  cluster.set_backend(backend);
  cluster.set_workers(workers);
  col::Backend be(cluster);
  cluster.run([&](int r) {
    if (frames != nullptr) {
      (*frames)[static_cast<std::size_t>(r)] =
          reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    }
    cost_program(cluster, be, r);
  });
  std::vector<double> clocks;
  for (int r = 0; r < world; ++r) clocks.push_back(cluster.device(r).clock());
  return clocks;
}

/// Recurse until the stack runs out, touching 1 KiB of it per frame.
[[gnu::noinline]] int exhaust_stack(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == std::numeric_limits<int>::max()) return frame[0];
  return exhaust_stack(depth + 1) + frame[0];
}

}  // namespace

TEST(BackendStacks, BackToBackRegionsReuseGuardedStacksBitwise) {
  // Fiber stacks outlive a region: the next region of the same stack size
  // runs on the same mappings, a different size never gets them, and every
  // stack keeps its PROT_NONE guard page directly below it.
  struct Region {
    int world;
    int workers;
    const char* stack_kb;
  };
  constexpr Region kRegions[] = {
      {16, 1, "128"}, {16, 3, "128"}, {8, 2, "256"}, {16, 0, "128"},
      {12, 1, "256"}};
  std::set<std::uintptr_t> first_stacks;
  for (const Region& rg : kRegions) {
    const std::string label = "world " + std::to_string(rg.world) +
                              " workers " + std::to_string(rg.workers) +
                              " stack " + rg.stack_kb + " KiB";
    ScopedEnv kb("CA_SIM_STACK_KB", rg.stack_kb);
    std::vector<std::uintptr_t> frames(static_cast<std::size_t>(rg.world));
    const std::vector<double> got = cost_program_clocks(
        rg.world, sim::SimBackend::kTasks, rg.workers, &frames);
    const std::vector<double> want = cost_program_clocks(
        rg.world, sim::SimBackend::kThreads, 0, nullptr);
    for (int r = 0; r < rg.world; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)],
                want[static_cast<std::size_t>(r)])
          << label << " rank " << r;
    }

    const std::vector<Vma> maps = read_maps();
    const std::uintptr_t want_bytes =
        static_cast<std::uintptr_t>(std::stoi(rg.stack_kb)) << 10;
    std::set<std::uintptr_t> stacks;
    for (const std::uintptr_t fp : frames) {
      const auto stack = std::find_if(maps.begin(), maps.end(), [&](auto& v) {
        return v.lo <= fp && fp < v.hi;
      });
      ASSERT_NE(stack, maps.end()) << label;
      EXPECT_EQ(stack->perms, "rw-p") << label;
      EXPECT_GE(stack->hi - stack->lo, want_bytes) << label;
      const auto guard = std::find_if(maps.begin(), maps.end(), [&](auto& v) {
        return v.hi == stack->lo;
      });
      ASSERT_NE(guard, maps.end()) << label << ": nothing mapped below stack";
      EXPECT_EQ(guard->perms, "---p") << label;
      stacks.insert(stack->lo);
    }
    if (first_stacks.empty()) {
      first_stacks = stacks;
    } else if (std::string(rg.stack_kb) == kRegions[0].stack_kb) {
      EXPECT_EQ(stacks, first_stacks) << label << ": stacks not reused";
    } else {
      for (const std::uintptr_t lo : stacks) {
        EXPECT_EQ(first_stacks.count(lo), 0u) << label << ": smaller stack";
      }
    }
  }
}

TEST(BackendStacksDeathTest, ReusedStackTrapsPastItsGuardPage) {
  // Re-executed in a fresh process, so the first region below is what puts
  // the stacks in the free list and the second overflows a reused one.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScopedEnv kb("CA_SIM_STACK_KB", "128");
  const auto overflow_reused_stack = [] {
    sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
    cluster.set_backend(sim::SimBackend::kTasks);
    cluster.set_workers(1);
    cluster.run([](int) {});
    cluster.run([](int r) {
      if (r == 2) (void)exhaust_stack(0);
    });
  };
  EXPECT_DEATH(overflow_reused_stack(), "");
}

// ---- knobs ------------------------------------------------------------------

TEST(BackendKnobs, ParseAndName) {
  EXPECT_EQ(sim::parse_backend("threads"), sim::SimBackend::kThreads);
  EXPECT_EQ(sim::parse_backend("tasks"), sim::SimBackend::kTasks);
  EXPECT_EQ(sim::parse_backend("fibers"), std::nullopt);
  EXPECT_EQ(sim::parse_backend(""), std::nullopt);
  EXPECT_STREQ(sim::backend_name(sim::SimBackend::kThreads), "threads");
  EXPECT_STREQ(sim::backend_name(sim::SimBackend::kTasks), "tasks");
}

TEST(BackendKnobs, ClusterReadsEnvironment) {
  {
    ScopedEnv be("CA_SIM_BACKEND", "tasks");
    ScopedEnv wk("CA_SIM_WORKERS", "3");
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    EXPECT_EQ(cluster.backend(), sim::SimBackend::kTasks);
    EXPECT_EQ(cluster.workers(), 3);
  }
  {
    ScopedEnv be("CA_SIM_BACKEND", nullptr);
    sim::Cluster cluster(sim::Topology::uniform(2, 100e9));
    EXPECT_EQ(cluster.backend(), sim::SimBackend::kThreads);  // the default
  }
  {
    ScopedEnv be("CA_SIM_BACKEND", "green-threads");
    EXPECT_THROW(sim::Cluster cluster(sim::Topology::uniform(2, 100e9)),
                 std::invalid_argument);
  }
  {
    ScopedEnv wk("CA_SIM_WORKERS", "lots");
    EXPECT_THROW(sim::Cluster cluster(sim::Topology::uniform(2, 100e9)),
                 std::invalid_argument);
  }
}

TEST(BackendKnobs, ConfigKeysParsedAndEnvWins) {
  {
    ScopedEnv be("CA_SIM_BACKEND", nullptr);
    ScopedEnv wk("CA_SIM_WORKERS", nullptr);
    auto world = core::launch("data=2 sim.backend=tasks sim.workers=2");
    EXPECT_EQ(world->cluster().backend(), sim::SimBackend::kTasks);
    EXPECT_EQ(world->cluster().workers(), 2);
    // And the tasks backend actually runs the SPMD region.
    std::vector<int> seen(2, 0);
    world->run([&](ca::tp::Env env) { seen[env.grank] = 1; });
    EXPECT_EQ(seen, (std::vector<int>{1, 1}));
  }
  {
    // Environment beats the config field.
    ScopedEnv be("CA_SIM_BACKEND", "threads");
    auto world = core::launch("data=2 sim.backend=tasks");
    EXPECT_EQ(world->cluster().backend(), sim::SimBackend::kThreads);
  }
  EXPECT_THROW(core::launch("data=2 sim.backend=coroutines"),
               std::invalid_argument);
  EXPECT_THROW(core::launch("data=2 sim.workers=-1"), std::invalid_argument);
}
