// Tests for the collective communication library: correctness of every
// primitive under concurrent SPMD execution, sub-groups, clock accounting
// against the alpha-beta cost model, and p2p channels.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "collective/backend.hpp"
#include "collective/cost.hpp"
#include "sim/cluster.hpp"

namespace col = ca::collective;
namespace sim = ca::sim;

namespace {

struct Fixture {
  explicit Fixture(int n, sim::Topology topo) : cluster(std::move(topo)), backend(cluster) {
    (void)n;
  }
  explicit Fixture(int n) : Fixture(n, sim::Topology::uniform(n, 100e9)) {}
  sim::Cluster cluster;
  col::Backend backend;
};

}  // namespace

TEST(Group, AllReduceSumsAcrossRanks) {
  const int n = 4;
  Fixture f(n);
  std::vector<std::vector<float>> bufs(n, std::vector<float>(8));
  f.cluster.run([&](int rank) {
    auto& buf = bufs[static_cast<std::size_t>(rank)];
    std::iota(buf.begin(), buf.end(), static_cast<float>(rank));
    f.backend.world().all_reduce(rank, buf);
  });
  // element i = sum over ranks of (rank + i) = 6 + 4*i
  for (int r = 0; r < n; ++r)
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(bufs[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                6.0f + 4.0f * static_cast<float>(i));
}

TEST(Group, ReduceScatterMatchesManualSum) {
  const int n = 4;
  Fixture f(n);
  std::vector<std::vector<float>> outs(n, std::vector<float>(2));
  f.cluster.run([&](int rank) {
    std::vector<float> in(8);
    for (int i = 0; i < 8; ++i) in[static_cast<std::size_t>(i)] = static_cast<float>(rank * 100 + i);
    f.backend.world().reduce_scatter(rank, in, outs[static_cast<std::size_t>(rank)]);
  });
  // chunk r of rank m's input: values m*100 + {2r, 2r+1}; sum over m: 600 + 4*(...)
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(outs[static_cast<std::size_t>(r)][0], 600.0f + 4.0f * (2.0f * r));
    EXPECT_EQ(outs[static_cast<std::size_t>(r)][1], 600.0f + 4.0f * (2.0f * r + 1.0f));
  }
}

TEST(Group, AllGatherConcatenatesInOrder) {
  const int n = 3;
  Fixture f(n);
  std::vector<std::vector<float>> outs(n, std::vector<float>(6));
  f.cluster.run([&](int rank) {
    std::vector<float> in{static_cast<float>(rank), static_cast<float>(rank) + 0.5f};
    f.backend.world().all_gather(rank, in, outs[static_cast<std::size_t>(rank)]);
  });
  for (int r = 0; r < n; ++r) {
    const auto& o = outs[static_cast<std::size_t>(r)];
    EXPECT_EQ(o, (std::vector<float>{0.0f, 0.5f, 1.0f, 1.5f, 2.0f, 2.5f}));
  }
}

TEST(Group, BroadcastFromNonzeroRoot) {
  const int n = 4;
  Fixture f(n);
  std::vector<std::vector<float>> bufs(n, std::vector<float>(4, -1.0f));
  f.cluster.run([&](int rank) {
    auto& buf = bufs[static_cast<std::size_t>(rank)];
    if (rank == 2) std::iota(buf.begin(), buf.end(), 10.0f);
    f.backend.world().broadcast(rank, buf, /*root=*/2);
  });
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)],
              (std::vector<float>{10, 11, 12, 13}));
}

TEST(Group, ReduceOnlyUpdatesRoot) {
  const int n = 3;
  Fixture f(n);
  std::vector<std::vector<float>> bufs(n, std::vector<float>(2));
  f.cluster.run([&](int rank) {
    auto& buf = bufs[static_cast<std::size_t>(rank)];
    buf = {static_cast<float>(rank + 1), 1.0f};
    f.backend.world().reduce(rank, buf, /*root=*/0);
  });
  EXPECT_EQ(bufs[0], (std::vector<float>{6.0f, 3.0f}));
  EXPECT_EQ(bufs[1], (std::vector<float>{2.0f, 1.0f}));  // unchanged
  EXPECT_EQ(bufs[2], (std::vector<float>{3.0f, 1.0f}));  // unchanged
}

TEST(Group, AllToAllTransposesChunks) {
  const int n = 3;
  Fixture f(n);
  std::vector<std::vector<float>> outs(n, std::vector<float>(3));
  f.cluster.run([&](int rank) {
    // in[j] = rank*10 + j : chunk j (one element) destined for rank j
    std::vector<float> in{static_cast<float>(rank * 10),
                          static_cast<float>(rank * 10 + 1),
                          static_cast<float>(rank * 10 + 2)};
    f.backend.world().all_to_all(rank, in, outs[static_cast<std::size_t>(rank)]);
  });
  // out[m] on rank r = m*10 + r
  for (int r = 0; r < n; ++r)
    for (int m = 0; m < n; ++m)
      EXPECT_EQ(outs[static_cast<std::size_t>(r)][static_cast<std::size_t>(m)],
                static_cast<float>(m * 10 + r));
}

TEST(Group, SubgroupsAreIndependent) {
  const int n = 4;
  Fixture f(n);
  auto& left = f.backend.create_group({0, 1});
  auto& right = f.backend.create_group({2, 3});
  std::vector<std::vector<float>> bufs(n, std::vector<float>(1));
  f.cluster.run([&](int rank) {
    bufs[static_cast<std::size_t>(rank)][0] = static_cast<float>(rank + 1);
    auto& g = rank < 2 ? left : right;
    g.all_reduce(rank, bufs[static_cast<std::size_t>(rank)]);
  });
  EXPECT_EQ(bufs[0][0], 3.0f);  // 1+2
  EXPECT_EQ(bufs[1][0], 3.0f);
  EXPECT_EQ(bufs[2][0], 7.0f);  // 3+4
  EXPECT_EQ(bufs[3][0], 7.0f);
}

TEST(Group, SingleMemberGroupIsNoop) {
  Fixture f(2);
  auto& solo = f.backend.create_group({0});
  std::vector<float> buf{5.0f};
  std::vector<float> out(1, 0.0f);
  f.cluster.run([&](int rank) {
    if (rank != 0) return;
    solo.all_reduce(rank, buf);
    solo.all_gather(rank, buf, out);
  });
  EXPECT_EQ(buf[0], 5.0f);
  EXPECT_EQ(out[0], 5.0f);
}

TEST(Group, RepeatedCollectivesStaySynchronized) {
  const int n = 4;
  Fixture f(n);
  std::vector<std::vector<float>> bufs(n, std::vector<float>(16, 1.0f));
  f.cluster.run([&](int rank) {
    for (int iter = 0; iter < 50; ++iter) {
      f.backend.world().all_reduce(rank, bufs[static_cast<std::size_t>(rank)]);
      // renormalize so values stay finite: after all_reduce every value x4
      for (auto& v : bufs[static_cast<std::size_t>(rank)]) v /= static_cast<float>(n);
    }
  });
  for (int r = 0; r < n; ++r)
    for (float v : bufs[static_cast<std::size_t>(r)]) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Group, ClockAdvancesByCostModel) {
  const int n = 4;
  const double bw = 100e9;
  Fixture f(n, sim::Topology::uniform(n, bw));
  std::vector<std::vector<float>> bufs(n, std::vector<float>(1024, 1.0f));
  f.cluster.run([&](int rank) {
    f.backend.world().all_reduce(rank, bufs[static_cast<std::size_t>(rank)]);
  });
  const std::int64_t bytes = 1024 * 4;
  const std::vector<int> ranks{0, 1, 2, 3};
  const double expect =
      col::collective_time(col::Op::kAllReduce, col::Algo::kChunked,
                           f.cluster.topology(), ranks, bytes);
  for (int r = 0; r < n; ++r)
    EXPECT_NEAR(f.cluster.device(r).clock(), expect, 1e-12);
}

TEST(Group, ClockSyncsToSlowestMember) {
  const int n = 2;
  Fixture f(n);
  f.cluster.run([&](int rank) {
    f.cluster.device(rank).advance_clock(rank == 0 ? 5.0 : 1.0);
    f.backend.world().barrier(rank);
  });
  EXPECT_DOUBLE_EQ(f.cluster.device(0).clock(), 5.0);
  EXPECT_DOUBLE_EQ(f.cluster.device(1).clock(), 5.0);
}

TEST(Group, BytesSentMatchesRingFormula) {
  const int n = 4;
  Fixture f(n);
  std::vector<std::vector<float>> bufs(n, std::vector<float>(100, 1.0f));
  f.cluster.run([&](int rank) {
    f.backend.world().all_reduce(rank, bufs[static_cast<std::size_t>(rank)]);
  });
  const std::int64_t payload = 100 * 4;
  const std::int64_t per_rank = 2 * (n - 1) * payload / n;
  EXPECT_EQ(f.cluster.device(0).bytes_sent(), per_rank);
  EXPECT_EQ(f.cluster.total_bytes_sent(), per_rank * n);
}

TEST(Group, AccountingTwinsMatchFunctionalCost) {
  const int n = 4;
  Fixture f1(n, sim::Topology::system_ii());
  Fixture f2(n, sim::Topology::system_ii());
  auto& g1 = f1.backend.create_group({0, 1, 2, 3});
  auto& g2 = f2.backend.create_group({0, 1, 2, 3});
  const std::int64_t elems = 4096;

  std::vector<std::vector<float>> bufs(n, std::vector<float>(elems, 1.0f));
  f1.cluster.run([&](int rank) {
    if (rank < 4) g1.all_reduce(rank, bufs[static_cast<std::size_t>(rank)]);
  });
  f2.cluster.run([&](int rank) {
    if (rank < 4) g2.account_all_reduce(rank, elems * 4);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_NEAR(f1.cluster.device(r).clock(), f2.cluster.device(r).clock(), 1e-12);
    EXPECT_EQ(f1.cluster.device(r).bytes_sent(), f2.cluster.device(r).bytes_sent());
  }
}

TEST(Cost, AllReduceSlowerOnPartiallyConnectedBox) {
  // The Fig 10/11 phenomenon: identical collective, radically different time.
  auto full = sim::Topology::system_i();
  auto partial = sim::Topology::system_ii();
  const std::vector<int> ranks{0, 1, 2, 3, 4, 5, 6, 7};
  const std::int64_t bytes = 125 * 1000 * 1000;
  constexpr auto kChunked = col::Algo::kChunked;
  const double t_full =
      col::collective_time(col::Op::kAllReduce, kChunked, full, ranks, bytes);
  const double t_partial =
      col::collective_time(col::Op::kAllReduce, kChunked, partial, ranks,
                           bytes);
  EXPECT_GT(t_partial / t_full, 8.0);  // 184/15 ~ 12x link ratio
}

TEST(Cost, ZeroBytesCostsNothing) {
  auto topo = sim::Topology::system_i();
  const std::vector<int> ranks{0, 1};
  EXPECT_EQ(col::collective_time(col::Op::kAllReduce, col::Algo::kChunked,
                                 topo, ranks, 0),
            0.0);
  EXPECT_EQ(col::p2p_time(topo, 0, 1, 0), 0.0);
}

TEST(Cost, BytesSentTotalsAreConsistent) {
  // total over ranks for all_reduce = 2(p-1)*payload
  EXPECT_EQ(col::bytes_sent_per_rank(col::Op::kAllReduce, 4, 400) * 4,
            2 * 3 * 400);
  EXPECT_EQ(col::bytes_sent_per_rank(col::Op::kAllGather, 4, 400) * 4,
            3 * 400);
  EXPECT_EQ(col::bytes_sent_per_rank(col::Op::kAllReduce, 1, 400), 0);
}

TEST(P2p, SendRecvMovesData) {
  Fixture f(2);
  std::vector<float> received(3, 0.0f);
  f.cluster.run([&](int rank) {
    auto& ch = f.backend.channel(0, 1);
    if (rank == 0) {
      std::vector<float> payload{1.0f, 2.0f, 3.0f};
      ch.send(payload);
    } else {
      ch.recv(received);
    }
  });
  EXPECT_EQ(received, (std::vector<float>{1, 2, 3}));
}

TEST(P2p, ClocksMeetAtTransferEnd) {
  Fixture f(2, sim::Topology::uniform(2, 1e9, sim::a100_80gb(), 0.0));
  f.cluster.run([&](int rank) {
    f.cluster.device(rank).advance_clock(rank == 0 ? 2.0 : 0.5);
    auto& ch = f.backend.channel(0, 1);
    if (rank == 0) {
      ch.send_bytes(1000000000);  // 1 GB over 1 GB/s = 1 s
    } else {
      ch.recv_bytes(1000000000);
    }
  });
  EXPECT_NEAR(f.cluster.device(0).clock(), 3.0, 1e-9);
  EXPECT_NEAR(f.cluster.device(1).clock(), 3.0, 1e-9);
}

TEST(P2p, BackToBackMessagesKeepOrder) {
  Fixture f(2);
  std::vector<float> first(1), second(1);
  f.cluster.run([&](int rank) {
    auto& ch = f.backend.channel(0, 1);
    if (rank == 0) {
      std::vector<float> a{1.0f}, b{2.0f};
      ch.send(a);
      ch.send(b);
    } else {
      ch.recv(first);
      ch.recv(second);
    }
  });
  EXPECT_EQ(first[0], 1.0f);
  EXPECT_EQ(second[0], 2.0f);
}

TEST(P2p, OppositeDirectionsAreIndependentChannels) {
  Fixture f(2);
  std::vector<float> at0(1), at1(1);
  f.cluster.run([&](int rank) {
    auto& fwd = f.backend.channel(0, 1);
    auto& bwd = f.backend.channel(1, 0);
    std::vector<float> mine{static_cast<float>(rank + 10)};
    // classic exchange: both send then recv would deadlock on one channel;
    // distinct channels make the pairing explicit.
    if (rank == 0) {
      fwd.send(mine);
      bwd.recv(at0);
    } else {
      fwd.recv(at1);
      bwd.send(mine);
    }
  });
  EXPECT_EQ(at0[0], 11.0f);
  EXPECT_EQ(at1[0], 10.0f);
}

TEST(Group, NonContiguousRanksWork) {
  // groups need not be contiguous (the 2D column groups are strided); check
  // a strided group's collectives and its ring bottleneck on System II.
  sim::Cluster cluster(sim::Topology::system_ii());
  col::Backend backend(cluster);
  auto& g = backend.create_group({1, 4, 6});
  std::vector<std::vector<float>> bufs(8, std::vector<float>(2, 0.0f));
  cluster.run([&](int rank) {
    if (!g.contains(rank)) return;
    bufs[static_cast<std::size_t>(rank)] = {static_cast<float>(rank), 1.0f};
    g.all_reduce(rank, bufs[static_cast<std::size_t>(rank)]);
  });
  for (int r : {1, 4, 6}) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)][0], 11.0f);  // 1+4+6
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)][1], 3.0f);
  }
  // every link of the {1,4,6} ring crosses PCIe on System II
  const std::vector<int> ranks{1, 4, 6};
  EXPECT_DOUBLE_EQ(cluster.topology().ring_bottleneck(ranks), 15.0e9);
}

TEST(Group, ChunkedAllReduceMatchesSerialReference) {
  // The chunked two-phase all-reduce partitions the buffer into ownership
  // chunks, so float summation is reassociated relative to a serial
  // accumulation; results must still match a single-threaded reference within
  // tolerance, for every world size and for payloads that are smaller than,
  // equal to, and much larger than the world size (1 leaves P-1 ranks with
  // empty chunks; 17 is prime so chunks are uneven; 1<<20 exercises the
  // OpenMP-parallel intra-chunk path).
  for (int n : {2, 4, 8}) {
    for (std::int64_t payload : {std::int64_t{1}, std::int64_t{17},
                                 std::int64_t{4096}, std::int64_t{1} << 20}) {
      Fixture f(n);
      std::mt19937 gen(static_cast<unsigned>(1234 + n + payload));
      std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
      std::vector<std::vector<float>> bufs(
          static_cast<std::size_t>(n),
          std::vector<float>(static_cast<std::size_t>(payload)));
      std::vector<double> ref(static_cast<std::size_t>(payload), 0.0);
      for (auto& buf : bufs)
        for (std::size_t i = 0; i < buf.size(); ++i) {
          buf[i] = dist(gen);
          ref[i] += static_cast<double>(buf[i]);
        }
      f.cluster.run([&](int rank) {
        f.backend.world().all_reduce(rank, bufs[static_cast<std::size_t>(rank)]);
      });
      for (int r = 0; r < n; ++r) {
        const auto& got = bufs[static_cast<std::size_t>(r)];
        for (std::size_t i = 0; i < got.size(); ++i) {
          const auto want = static_cast<float>(ref[i]);
          const float tol = 1e-4f * std::max(1.0f, std::fabs(want));
          ASSERT_NEAR(got[i], want, tol)
              << "world=" << n << " payload=" << payload << " rank=" << r
              << " elem=" << i;
        }
        // every rank must observe the bit-identical reduced buffer (each
        // chunk is computed once, by its owner, and copied everywhere)
        ASSERT_EQ(got, bufs[0]) << "world=" << n << " payload=" << payload;
      }
    }
  }
}

TEST(Group, ChunkedReduceAndAllGatherMatchReference) {
  // Same order-independence guarantee for the other two reworked primitives,
  // on an uneven payload so ownership chunks differ in size.
  const int n = 4;
  const std::int64_t payload = 1031;
  Fixture f(n);
  std::mt19937 gen(99);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<std::vector<float>> bufs(
      static_cast<std::size_t>(n),
      std::vector<float>(static_cast<std::size_t>(payload)));
  std::vector<double> ref(static_cast<std::size_t>(payload), 0.0);
  for (auto& buf : bufs)
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = dist(gen);
      ref[i] += static_cast<double>(buf[i]);
    }
  auto inputs = bufs;  // keep originals for the gather check

  std::vector<std::vector<float>> gathered(
      static_cast<std::size_t>(n),
      std::vector<float>(static_cast<std::size_t>(n * payload)));
  f.cluster.run([&](int rank) {
    f.backend.world().reduce(rank, bufs[static_cast<std::size_t>(rank)],
                             /*root=*/2);
    f.backend.world().all_gather(rank, inputs[static_cast<std::size_t>(rank)],
                                 gathered[static_cast<std::size_t>(rank)]);
  });
  for (std::size_t i = 0; i < static_cast<std::size_t>(payload); ++i) {
    const auto want = static_cast<float>(ref[i]);
    const float tol = 1e-4f * std::max(1.0f, std::fabs(want));
    ASSERT_NEAR(bufs[2][i], want, tol) << "reduce elem " << i;
  }
  EXPECT_EQ(bufs[1], inputs[1]);  // non-root buffers untouched
  for (int r = 0; r < n; ++r)
    for (int m = 0; m < n; ++m)
      for (std::size_t i = 0; i < static_cast<std::size_t>(payload); ++i)
        ASSERT_EQ(gathered[static_cast<std::size_t>(r)]
                          [static_cast<std::size_t>(m) * payload + i],
                  inputs[static_cast<std::size_t>(m)][i])
            << "all_gather rank=" << r << " chunk=" << m << " elem=" << i;
}

TEST(Group, IndexOfMapsGlobalToGroupRank) {
  sim::Cluster cluster(sim::Topology::uniform(8, 1e9));
  col::Backend backend(cluster);
  auto& g = backend.create_group({7, 2, 5});
  EXPECT_EQ(g.index_of(7), 0);
  EXPECT_EQ(g.index_of(2), 1);
  EXPECT_EQ(g.index_of(5), 2);
  EXPECT_TRUE(g.contains(5));
  EXPECT_FALSE(g.contains(0));
}

TEST(Group, GatherConcatenatesAtRoot) {
  const int n = 3;
  Fixture f(n);
  std::vector<float> rootbuf(6, -1.0f);
  f.cluster.run([&](int rank) {
    std::vector<float> in{static_cast<float>(rank * 2),
                          static_cast<float>(rank * 2 + 1)};
    std::vector<float> empty;
    f.backend.world().gather(rank, in,
                             rank == 1 ? std::span<float>(rootbuf)
                                       : std::span<float>(empty),
                             /*root=*/1);
  });
  EXPECT_EQ(rootbuf, (std::vector<float>{0, 1, 2, 3, 4, 5}));
}

TEST(Group, ScatterDistributesRootChunks) {
  const int n = 4;
  Fixture f(n);
  std::vector<std::vector<float>> outs(n, std::vector<float>(2, -1.0f));
  std::vector<float> rootdata{0, 1, 10, 11, 20, 21, 30, 31};
  f.cluster.run([&](int rank) {
    std::vector<float> empty;
    f.backend.world().scatter(
        rank, rank == 0 ? std::span<const float>(rootdata)
                        : std::span<const float>(empty),
        outs[static_cast<std::size_t>(rank)], /*root=*/0);
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(outs[static_cast<std::size_t>(r)],
              (std::vector<float>{static_cast<float>(r * 10),
                                  static_cast<float>(r * 10 + 1)}));
  }
}

TEST(Group, ScatterThenGatherRoundTrips) {
  const int n = 4;
  Fixture f(n);
  std::vector<float> original{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> back(8, 0.0f);
  f.cluster.run([&](int rank) {
    std::vector<float> mine(2);
    std::vector<float> empty;
    f.backend.world().scatter(
        rank, rank == 0 ? std::span<const float>(original)
                        : std::span<const float>(empty),
        mine, 0);
    f.backend.world().gather(rank, mine,
                             rank == 0 ? std::span<float>(back)
                                       : std::span<float>(empty),
                             0);
  });
  EXPECT_EQ(back, original);
}

// ---- non-blocking collectives ---------------------------------------------------

TEST(Async, AllReduceBitIdenticalToBlocking) {
  for (int n : {2, 4, 8}) {
    for (std::int64_t len : {std::int64_t{1}, std::int64_t{17},
                             std::int64_t{4096}}) {
      Fixture f(n);
      std::vector<std::vector<float>> blocking(
          static_cast<std::size_t>(n), std::vector<float>(static_cast<std::size_t>(len)));
      std::vector<std::vector<float>> deferred = blocking;
      f.cluster.run([&](int rank) {
        auto& b = blocking[static_cast<std::size_t>(rank)];
        auto& d = deferred[static_cast<std::size_t>(rank)];
        std::mt19937 rng(1234u + static_cast<unsigned>(rank));
        std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
        for (std::size_t i = 0; i < b.size(); ++i) d[i] = b[i] = dist(rng);
        f.backend.world().all_reduce(rank, b);
        auto h = f.backend.world().all_reduce_async(rank, d);
        h.wait();
      });
      for (int r = 0; r < n; ++r) {
        ASSERT_EQ(deferred[static_cast<std::size_t>(r)],
                  blocking[static_cast<std::size_t>(r)])
            << "world " << n << " len " << len << " rank " << r;
      }
    }
  }
}

TEST(Async, FusedScaleMatchesSumThenMultiply) {
  const int n = 4;
  Fixture f(n);
  const std::size_t len = 1000;
  std::vector<std::vector<float>> ref(n, std::vector<float>(len));
  std::vector<std::vector<float>> fused = ref;
  const float scale = 1.0f / static_cast<float>(n);
  f.cluster.run([&](int rank) {
    auto& a = ref[static_cast<std::size_t>(rank)];
    auto& b = fused[static_cast<std::size_t>(rank)];
    std::mt19937 rng(99u + static_cast<unsigned>(rank));
    std::uniform_real_distribution<float> dist(-3.0f, 3.0f);
    for (std::size_t i = 0; i < len; ++i) b[i] = a[i] = dist(rng);
    f.backend.world().all_reduce(rank, a);
    for (auto& v : a) v *= scale;  // reference: sum, then multiply
    f.backend.world().all_reduce(rank, b, scale);  // fused copy-out
  });
  for (int r = 0; r < n; ++r)
    ASSERT_EQ(fused[static_cast<std::size_t>(r)], ref[static_cast<std::size_t>(r)]);
}

TEST(Async, OutOfOrderWaitDrainsEarlierOps) {
  const int n = 4;
  Fixture f(n);
  const std::size_t len = 64;
  std::vector<std::array<std::vector<float>, 3>> bufs(static_cast<std::size_t>(n));
  f.cluster.run([&](int rank) {
    auto& mine = bufs[static_cast<std::size_t>(rank)];
    for (int k = 0; k < 3; ++k) {
      mine[static_cast<std::size_t>(k)].assign(len, static_cast<float>(rank + k));
    }
    auto h0 = f.backend.world().all_reduce_async(rank, mine[0]);
    auto h1 = f.backend.world().all_reduce_async(rank, mine[1]);
    auto h2 = f.backend.world().all_reduce_async(rank, mine[2]);
    EXPECT_FALSE(h0.test());
    EXPECT_FALSE(h2.test());
    h2.wait();  // must drain h0 and h1 first to preserve group order
    EXPECT_TRUE(h0.test());
    EXPECT_TRUE(h1.test());
    h0.wait();  // idempotent
    h1.wait();
  });
  // op k: element sum over ranks of (rank + k) = 6 + 4k
  for (int r = 0; r < n; ++r)
    for (int k = 0; k < 3; ++k)
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(bufs[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)][i],
                  6.0f + 4.0f * static_cast<float>(k));
}

TEST(Async, TestPollsWithoutProgressAndBlockingCollectiveFlushes) {
  const int n = 2;
  Fixture f(n);
  f.cluster.run([&](int rank) {
    std::vector<float> a(8, static_cast<float>(rank));
    std::vector<float> b(4, 1.0f);
    auto h = f.backend.world().all_reduce_async(rank, a);
    EXPECT_TRUE(h.valid());
    EXPECT_FALSE(h.test());
    EXPECT_FALSE(h.test());  // polling never executes the op
    // a blocking collective implicitly flushes the pending queue first
    f.backend.world().all_reduce(rank, b);
    EXPECT_TRUE(h.test());
    h.wait();
    for (float v : a) EXPECT_EQ(v, 1.0f);  // 0 + 1
    for (float v : b) EXPECT_EQ(v, 2.0f);
  });
}

TEST(Async, ManyInFlightBucketsCompleteCorrectly) {
  const int n = 4;
  const int kOps = 32;
  Fixture f(n);
  std::vector<std::vector<std::vector<float>>> bufs(
      static_cast<std::size_t>(n),
      std::vector<std::vector<float>>(kOps));
  f.cluster.run([&](int rank) {
    auto& mine = bufs[static_cast<std::size_t>(rank)];
    std::vector<col::CollectiveHandle> handles;
    handles.reserve(kOps);
    for (int k = 0; k < kOps; ++k) {
      mine[static_cast<std::size_t>(k)].assign(
          static_cast<std::size_t>(16 + k), static_cast<float>(rank * kOps + k));
      handles.push_back(
          f.backend.world().all_reduce_async(rank, mine[static_cast<std::size_t>(k)]));
    }
    // wait newest-to-oldest: every wait of op k drains all earlier ops
    for (int k = kOps - 1; k >= 0; --k) handles[static_cast<std::size_t>(k)].wait();
  });
  for (int r = 0; r < n; ++r) {
    for (int k = 0; k < kOps; ++k) {
      // sum over ranks of (rank*kOps + k) = kOps*(0+1+2+3) + 4k
      const float want = static_cast<float>(kOps * 6 + 4 * k);
      for (float v : bufs[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)])
        ASSERT_EQ(v, want);
    }
  }
}

TEST(Async, ReduceScatterAndAllGatherMatchBlocking) {
  const int n = 4;
  Fixture f(n);
  const std::size_t chunk = 5, full = chunk * n;
  std::vector<std::vector<float>> rs_ref(n, std::vector<float>(chunk));
  std::vector<std::vector<float>> rs_async = rs_ref;
  std::vector<std::vector<float>> ag_ref(n, std::vector<float>(full));
  std::vector<std::vector<float>> ag_async = ag_ref;
  f.cluster.run([&](int rank) {
    std::vector<float> in(full);
    std::mt19937 rng(7u + static_cast<unsigned>(rank));
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    for (auto& v : in) v = dist(rng);
    std::vector<float> small(chunk, static_cast<float>(rank) + 0.25f);

    f.backend.world().reduce_scatter(rank, in, rs_ref[static_cast<std::size_t>(rank)]);
    f.backend.world().all_gather(rank, small, ag_ref[static_cast<std::size_t>(rank)]);

    auto h1 = f.backend.world().reduce_scatter_async(
        rank, in, rs_async[static_cast<std::size_t>(rank)]);
    auto h2 = f.backend.world().all_gather_async(
        rank, small, ag_async[static_cast<std::size_t>(rank)]);
    h2.wait();
    EXPECT_TRUE(h1.test());
    h1.wait();
  });
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(rs_async[static_cast<std::size_t>(r)], rs_ref[static_cast<std::size_t>(r)]);
    ASSERT_EQ(ag_async[static_cast<std::size_t>(r)], ag_ref[static_cast<std::size_t>(r)]);
  }
}

TEST(Async, OverlappedCommIsChargedOnlyUnhiddenTime) {
  const int n = 2;
  Fixture f(n);
  std::vector<double> clocks(static_cast<std::size_t>(n));
  f.cluster.run([&](int rank) {
    std::vector<float> buf(1 << 12, 1.0f);
    const double t0 = f.cluster.device(rank).clock();
    auto h = f.backend.world().all_reduce_async(rank, buf);
    // a long compute window fully hides the transfer
    f.cluster.device(rank).advance_clock(1.0);
    h.wait();
    clocks[static_cast<std::size_t>(rank)] = f.cluster.device(rank).clock() - t0;
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_DOUBLE_EQ(clocks[static_cast<std::size_t>(r)], 1.0)
        << "hidden communication must not advance the clock";
  }
}

TEST(Async, UnhiddenCommChargesCompletionTime) {
  const int n = 2;
  Fixture f(n);
  const std::int64_t len = 1 << 12;
  std::vector<double> async_cost(static_cast<std::size_t>(n));
  std::vector<double> blocking_cost(static_cast<std::size_t>(n));
  f.cluster.run([&](int rank) {
    std::vector<float> a(static_cast<std::size_t>(len), 1.0f);
    std::vector<float> b = a;
    double t0 = f.cluster.device(rank).clock();
    auto h = f.backend.world().all_reduce_async(rank, a);
    h.wait();  // no compute in between: full comm time is exposed
    async_cost[static_cast<std::size_t>(rank)] = f.cluster.device(rank).clock() - t0;
    t0 = f.cluster.device(rank).clock();
    f.backend.world().all_reduce(rank, b);
    blocking_cost[static_cast<std::size_t>(rank)] = f.cluster.device(rank).clock() - t0;
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_GT(async_cost[static_cast<std::size_t>(r)], 0.0);
    EXPECT_DOUBLE_EQ(async_cost[static_cast<std::size_t>(r)],
                     blocking_cost[static_cast<std::size_t>(r)]);
  }
}

TEST(P2p, PrepostedRecvOverlapsTransferWithCompute) {
  Fixture f(2);
  std::vector<float> payload{1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> got(4, 0.0f);
  std::vector<double> recv_cost(1);
  f.cluster.run([&](int rank) {
    if (rank == 0) {
      f.backend.channel(0, 1).send_async(payload);
    } else {
      auto h = f.backend.channel(0, 1).irecv(got);
      // compute long enough to hide the transfer completely
      f.cluster.device(rank).advance_clock(1.0);
      const double before = f.cluster.device(rank).clock();
      h.wait();
      recv_cost[0] = f.cluster.device(rank).clock() - before;
    }
  });
  EXPECT_EQ(got, payload);
  EXPECT_DOUBLE_EQ(recv_cost[0], 0.0);
}
