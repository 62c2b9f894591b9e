// collective::CostReplay against its oracle, the live account_* path.
//
// * Table3Twin: exact pins of Table 3's cost-only twin (tp::SimTransformer):
//   per-rank simulated clocks, interconnect bytes and traced per-category
//   seconds on small System IV worlds, as hex-float literals, under the
//   thread-per-rank oracle and the fiber backend at 1 and 3 workers.
// * CostReplay: seeded random symmetric programs (compute plus all six
//   account ops on world, contiguous, strided and by-node groups) replayed
//   vs charged live must agree bit for bit in clocks, bytes, every trace
//   event and every comm metric; broken programs fail loudly, never hang.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "collective/backend.hpp"
#include "collective/cost_replay.hpp"
#include "core/context.hpp"
#include "obs/report.hpp"
#include "sim/cluster.hpp"
#include "tp/sim_transformer.hpp"

namespace col = ca::collective;
namespace core = ca::core;
namespace obs = ca::obs;
namespace sim = ca::sim;
namespace tp = ca::tp;

using col::Op;

namespace {

struct BackendCase {
  sim::SimBackend kind;
  int workers;
};

constexpr BackendCase kBackends[] = {{sim::SimBackend::kThreads, 0},
                                     {sim::SimBackend::kTasks, 1},
                                     {sim::SimBackend::kTasks, 3}};

/// What one twin run observes, compared bit for bit.
struct TwinRun {
  std::vector<double> clocks;  ///< per rank
  std::int64_t bytes = 0;      ///< Cluster::total_bytes_sent
  double compute_s = 0.0;      ///< traced compute seconds, summed in rank order
  double comm_s = 0.0;         ///< traced comm seconds, summed in rank order
};

/// Two SimTransformer steps of `mode` on a System IV world of dp * tp ranks
/// (each tensor group runs its own copy of the model), traced.
TwinRun run_twin(core::TpMode mode, int tp_size, int depth, int dp,
                 const BackendCase& be) {
  core::Config cfg;
  cfg.data_parallel_size = dp;
  cfg.tensor_parallel_size = tp_size;
  cfg.tensor_mode = mode;
  cfg.tensor_depth = depth;
  sim::Cluster cluster(sim::Topology::system_iv(cfg.world_size()));
  cluster.set_backend(be.kind);
  cluster.set_workers(be.workers);
  cluster.enable_tracing();
  col::Backend backend(cluster);
  core::ParallelContext ctx(backend, cfg);

  tp::TransformerShape shape;
  shape.layers = 2;
  shape.hidden = 512;
  shape.heads = 8;
  shape.seq = 64;
  shape.batch = 16;
  shape.bytes_per_elem = 2;
  cluster.run([&](int g) {
    tp::SimTransformer model(tp::Env{&ctx, g}, mode, shape);
    model.train_step();
    model.train_step();
  });

  TwinRun out;
  for (int r = 0; r < cluster.world_size(); ++r) {
    out.clocks.push_back(cluster.device(r).clock());
  }
  out.bytes = cluster.total_bytes_sent();
  const obs::TraceReport rep = obs::summarize(*cluster.tracer());
  for (const obs::RankSummary& rs : rep.ranks) {
    out.compute_s += rs.seconds[static_cast<int>(obs::Category::kCompute)];
    out.comm_s += rs.seconds[static_cast<int>(obs::Category::kComm)];
  }
  return out;
}

void expect_pinned(const TwinRun& got, const TwinRun& want) {
  ASSERT_EQ(got.clocks.size(), want.clocks.size());
  for (std::size_t r = 0; r < want.clocks.size(); ++r) {
    EXPECT_EQ(got.clocks[r], want.clocks[r]) << "rank " << r;
  }
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.compute_s, want.compute_s);
  EXPECT_EQ(got.comm_s, want.comm_s);
}

void check_twin(core::TpMode mode, int tp_size, int depth, int dp,
                const TwinRun& want) {
  for (const BackendCase& be : kBackends) {
    SCOPED_TRACE(std::string(be.kind == sim::SimBackend::kThreads ? "threads"
                                                                  : "tasks") +
                 " workers=" + std::to_string(be.workers));
    const TwinRun got = run_twin(mode, tp_size, depth, dp, be);
    expect_pinned(got, want);
  }
}

TwinRun uniform(int ranks, double clock, std::int64_t bytes, double compute_s,
                double comm_s) {
  return TwinRun{std::vector<double>(static_cast<std::size_t>(ranks), clock),
                 bytes, compute_s, comm_s};
}

}  // namespace

// ---- Table 3 twin pins ----------------------------------------------------

TEST(Table3Twin, Pin1d) {
  check_twin(core::TpMode::k1d, 4, 1, 1,
             uniform(4, 0x1.426d0c499f972p-8, 100663296,
                     0x1.1f56cb3dedefp-8, 0x1.f52eb2f44836cp-7));
}

TEST(Table3Twin, Pin2d) {
  check_twin(core::TpMode::k2d, 4, 1, 1,
             uniform(4, 0x1.adc0a12909ad7p-7, 163577856,
                     0x1.1f56cb3dedf18p-8, 0x1.89d5c7c14bef4p-5));
}

TEST(Table3Twin, Pin2p5dDepth2) {
  check_twin(core::TpMode::k2p5d, 8, 2, 1,
             uniform(8, 0x1.6d7f3e1eef24bp-7, 289406976,
                     0x1.1f56cb3dedebfp-8, 0x1.5b89d16b1045fp-4));
}

TEST(Table3Twin, Pin3d) {
  check_twin(core::TpMode::k3d, 8, 1, 1,
             uniform(8, 0x1.38ede9cb34c72p-8, 184549376,
                     0x1.1f56cb3dedef4p-8, 0x1.1503106377094p-5));
}

TEST(Table3Twin, Pin2dTwoDataReplicas) {
  // dp=2: two tensor groups of the same world run (and settle) independently.
  check_twin(core::TpMode::k2d, 4, 1, 2,
             uniform(8, 0x1.adc0a12909ad7p-7, 327155712,
                     0x1.1f56cb3dedf18p-7, 0x1.89d5c7c14bef4p-4));
}

// ---- replay vs live oracle ------------------------------------------------

namespace {

/// One step of a symmetric program: every rank runs the same sequence.
struct Step {
  enum class Kind { kCompute, kCollective, kFlush } kind;
  int family = 0;  ///< kCollective: world, contiguous, strided or by-node
  Op op = Op::kAllReduce;
  std::int64_t bytes = 0;
  double flops = 0.0;  ///< kCompute: scaled per rank, so clocks diverge
  bool fp32 = false;
};

constexpr int kFamilies = 4;

std::vector<Step> random_program(std::uint64_t seed, int len) {
  std::mt19937_64 rng(seed);
  constexpr Op kOps[] = {Op::kAllReduce, Op::kReduceScatter, Op::kAllGather,
                         Op::kBroadcast, Op::kReduce,        Op::kAllToAll};
  // From the single-root regime through chunked/hierarchical to ring.
  constexpr std::int64_t kBytes[] = {256,       4 << 10,  64 << 10,
                                     1 << 20,   16 << 20, 64 << 20};
  std::vector<Step> prog;
  for (int i = 0; i < len; ++i) {
    Step st{};
    const auto pick = rng() % 10;
    if (pick < 3) {
      st.kind = Step::Kind::kCompute;
      st.flops = 1e9 * static_cast<double>(1 + rng() % 100);
      st.fp32 = rng() % 3 == 0;
    } else if (pick == 3) {
      st.kind = Step::Kind::kFlush;
    } else {
      st.kind = Step::Kind::kCollective;
      st.family = static_cast<int>(rng() % kFamilies);
      st.op = kOps[rng() % 6];
      st.bytes = kBytes[rng() % 6];
    }
    prog.push_back(st);
  }
  return prog;
}

void account(col::Group& g, int r, Op op, std::int64_t bytes) {
  switch (op) {
    case Op::kAllReduce: g.account_all_reduce(r, bytes); break;
    case Op::kReduceScatter: g.account_reduce_scatter(r, bytes); break;
    case Op::kAllGather: g.account_all_gather(r, bytes); break;
    case Op::kBroadcast: g.account_broadcast(r, bytes); break;
    case Op::kReduce: g.account_reduce(r, bytes); break;
    case Op::kAllToAll: g.account_all_to_all(r, bytes); break;
    default: FAIL() << "no account twin for " << col::op_name(op);
  }
}

using HistView = std::tuple<std::int64_t, double, double, double,
                            std::vector<std::int64_t>>;
using CommView = std::tuple<std::int64_t, double, double, double, double>;

/// Everything a program run leaves behind, per rank.
struct Observed {
  std::vector<double> clocks;
  std::vector<std::int64_t> bytes;
  std::vector<std::vector<obs::TraceEvent>> events;
  std::vector<std::map<std::string, std::int64_t>> counters;
  std::vector<std::map<std::string, HistView>> hists;
  std::vector<std::map<obs::CommKey, CommView>> comm;
};

/// Each rank's group in the world, 4-rank contiguous block, stride-2 class
/// and per-node families.
class Families {
 public:
  Families(col::Backend& be, const sim::Topology& topo)
      : by_(kFamilies * topo.num_devices()), world_(topo.num_devices()) {
    for (int r = 0; r < world_; ++r) set(0, r, be.world());
    auto add = [&](int f, const std::vector<int>& ranks, std::string name) {
      col::Group& g = be.create_group(ranks, std::move(name));
      for (const int r : ranks) set(f, r, g);
    };
    for (int b = 0; b < world_ / 4; ++b) {
      add(1, {4 * b, 4 * b + 1, 4 * b + 2, 4 * b + 3},
          "blk" + std::to_string(b));
    }
    for (int c = 0; c < 2; ++c) {
      std::vector<int> ranks;
      for (int r = c; r < world_; r += 2) ranks.push_back(r);
      add(2, ranks, "stride" + std::to_string(c));
    }
    for (int n = 0; n < topo.num_nodes(); ++n) {
      std::vector<int> ranks;
      for (int r = 0; r < world_; ++r) {
        if (topo.node_of(r) == n) ranks.push_back(r);
      }
      add(3, ranks, "node" + std::to_string(n));
    }
  }

  [[nodiscard]] col::Group& at(int family, int grank) const {
    return *by_[static_cast<std::size_t>(family * world_ + grank)];
  }

 private:
  void set(int family, int grank, col::Group& g) {
    by_[static_cast<std::size_t>(family * world_ + grank)] = &g;
  }

  std::vector<col::Group*> by_;
  int world_;
};

Observed run_program(const sim::Topology& topo, const std::vector<Step>& prog,
                     bool replay, const BackendCase& backend) {
  sim::Cluster cluster(topo);
  cluster.set_backend(backend.kind);
  cluster.set_workers(backend.workers);
  cluster.enable_tracing();
  cluster.enable_metrics();
  col::Backend be(cluster);
  const Families fam(be, topo);

  cluster.run([&](int r) {
    col::CostReplay rp(be.world(), r);
    sim::Device& dev = cluster.device(r);
    for (std::size_t i = 0; i < prog.size(); ++i) {
      const Step& st = prog[i];
      switch (st.kind) {
        case Step::Kind::kCompute: {
          const int skew = (r * 5 + static_cast<int>(i)) % 4;
          const double flops = st.flops * (1.0 + 0.25 * skew);
          if (replay) {
            rp.compute(flops, st.fp32 ? col::CostReplay::Precision::kFp32
                                      : col::CostReplay::Precision::kFp16);
          } else if (st.fp32) {
            dev.compute_fp32(flops);
          } else {
            dev.compute_fp16(flops);
          }
          break;
        }
        case Step::Kind::kCollective: {
          col::Group& g = fam.at(st.family, r);
          if (replay) {
            rp.collective(g, st.op, st.bytes);
          } else {
            account(g, r, st.op, st.bytes);
          }
          break;
        }
        case Step::Kind::kFlush:
          if (replay) rp.flush();
          break;
      }
    }
    if (replay) rp.flush();
  });

  Observed o;
  for (int r = 0; r < cluster.world_size(); ++r) {
    o.clocks.push_back(cluster.device(r).clock());
    o.bytes.push_back(cluster.device(r).bytes_sent());
    o.events.push_back(cluster.tracer()->rank(r).events());
    const obs::MetricsSink& sink = cluster.metrics()->rank(r);
    auto& counters = o.counters.emplace_back();
    for (const auto& [name, c] : sink.counters()) counters[name] = c.value;
    auto& hists = o.hists.emplace_back();
    for (const auto& [name, h] : sink.hists()) {
      hists[name] = {h.count(), h.sum(), h.min(), h.max(), h.buckets()};
    }
    auto& comm = o.comm.emplace_back();
    for (const auto& [key, st] : sink.comm()) {
      comm[key] = {st.count, st.sum_s, st.min_s, st.max_s, st.sum_pred_s};
    }
  }
  return o;
}

void expect_same(const Observed& got, const Observed& want) {
  ASSERT_EQ(got.clocks.size(), want.clocks.size());
  for (std::size_t r = 0; r < want.clocks.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(got.clocks[r], want.clocks[r]);
    EXPECT_EQ(got.bytes[r], want.bytes[r]);
    ASSERT_EQ(got.events[r].size(), want.events[r].size());
    for (std::size_t e = 0; e < want.events[r].size(); ++e) {
      const obs::TraceEvent& a = got.events[r][e];
      const obs::TraceEvent& b = want.events[r][e];
      SCOPED_TRACE("event " + std::to_string(e) + " " + b.name);
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.cat, b.cat);
      EXPECT_EQ(a.t0, b.t0);
      EXPECT_EQ(a.t1, b.t1);
      EXPECT_EQ(a.t_issue, b.t_issue);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(a.flops, b.flops);
      EXPECT_EQ(a.alpha, b.alpha);
      EXPECT_EQ(a.algo, b.algo);
      EXPECT_EQ(a.dtype, b.dtype);
    }
    EXPECT_EQ(got.counters[r], want.counters[r]);
    EXPECT_EQ(got.hists[r], want.hists[r]);
    EXPECT_EQ(got.comm[r], want.comm[r]);
  }
}

void check_replay_matches_live(const sim::Topology& topo, std::uint64_t seed,
                               int len) {
  const std::vector<Step> prog = random_program(seed, len);
  const Observed live = run_program(topo, prog, /*replay=*/false, kBackends[0]);
  ASSERT_GT(live.events[0].size(), 0u);
  for (const BackendCase& be : kBackends) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " workers=" +
                 std::to_string(be.workers));
    expect_same(run_program(topo, prog, /*replay=*/true, be), live);
  }
}

/// Run `body` SPMD on a 4-rank world and return what the region threw.
template <class Body>
std::string region_error(Body body) {
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  col::Backend be(cluster);
  try {
    cluster.run([&](int r) { body(cluster, be, r); });
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "no logic_error";
}

}  // namespace

TEST(CostReplay, MatchesLiveOnSystemIII) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    check_replay_matches_live(sim::Topology::system_iii(2), seed, 120);
  }
}

TEST(CostReplay, MatchesLiveOnSystemIV) {
  check_replay_matches_live(sim::Topology::system_iv(64), 7, 60);
}

TEST(CostReplay, FaultsExecuteLive) {
  // With an injector installed every record runs through the live path, so
  // straggler and link-degradation windows charge exactly as before.
  const std::vector<Step> prog = random_program(11, 80);
  auto run = [&](bool replay, bool faults) {
    sim::Cluster cluster(sim::Topology::system_iii(2));
    cluster.enable_tracing();
    if (faults) {
      cluster.install_faults(sim::FaultPlan{}
                                 .straggler(3, 0.0, 1e9, 2.0)
                                 .degrade_links(0.0, 1e9, 1.5));
    }
    col::Backend be(cluster);
    const Families fam(be, cluster.topology());
    cluster.run([&](int r) {
      col::CostReplay rp(be.world(), r);
      for (const Step& st : prog) {
        if (st.kind == Step::Kind::kCompute) {
          if (replay) {
            rp.compute(st.flops);
          } else {
            cluster.device(r).compute_fp16(st.flops);
          }
        } else if (st.kind == Step::Kind::kCollective) {
          col::Group& g = fam.at(st.family, r);
          if (replay) {
            rp.collective(g, st.op, st.bytes);
          } else {
            account(g, r, st.op, st.bytes);
          }
        }
      }
      if (replay) rp.flush();
    });
    std::vector<double> clocks;
    for (int r = 0; r < cluster.world_size(); ++r) {
      clocks.push_back(cluster.device(r).clock());
    }
    return std::make_pair(clocks, obs::summarize(*cluster.tracer()).wall);
  };
  const auto live = run(/*replay=*/false, /*faults=*/true);
  EXPECT_GT(live.second, run(false, false).second);  // the faults show
  EXPECT_EQ(run(true, true), live);
}

TEST(CostReplay, MemoizedPricesFollowForcedAlgoAndWire) {
  // Four ops of one size per region: a replayed and a live account_*
  // all-reduce, and data-moving ones on an fp32 and a bf16 wire (twice the
  // elements, so the same bytes). Between the regions the backend forces
  // single-root, so every op of the second region must be re-priced.
  constexpr std::int64_t kBytes = 256 << 10;
  sim::Cluster cluster(sim::Topology::system_iv(16));
  cluster.enable_tracing();
  col::Backend be(cluster);
  col::Group& world = be.world();
  auto region = [&] {
    cluster.run([&](int r) {
      col::CostReplay rp(world, r);
      rp.collective(world, Op::kAllReduce, kBytes);
      rp.flush();
      world.account_all_reduce(r, kBytes);
      std::vector<float> f32(kBytes / 4, 1.0f);
      world.all_reduce(r, f32);
      std::vector<float> bf16(kBytes / 2, 1.0f);
      world.all_reduce(r, bf16, 1.0f, ca::tensor::Dtype::kBF16);
    });
  };
  region();
  be.set_forced_algo(col::Algo::kSingleRoot);
  region();
  be.set_forced_algo(std::nullopt);

  struct Want {
    col::Algo algo;
    const char* dtype;
  };
  const col::Algo auto_f32 = world.algo_for(Op::kAllReduce, kBytes, 4);
  const col::Algo auto_bf16 = world.algo_for(Op::kAllReduce, kBytes, 2);
  ASSERT_NE(auto_f32, col::Algo::kSingleRoot);
  const Want want[] = {{auto_f32, "f32"},
                       {auto_f32, "f32"},
                       {auto_f32, "f32"},
                       {auto_bf16, "bf16"},
                       {col::Algo::kSingleRoot, "f32"},
                       {col::Algo::kSingleRoot, "f32"},
                       {col::Algo::kSingleRoot, "f32"},
                       {col::Algo::kSingleRoot, "bf16"}};
  for (int r = 0; r < cluster.world_size(); ++r) {
    std::vector<obs::TraceEvent> comm;
    for (const obs::TraceEvent& e : cluster.tracer()->rank(r).events()) {
      if (e.cat == obs::Category::kComm) comm.push_back(e);
    }
    ASSERT_EQ(comm.size(), std::size(want)) << "rank " << r;
    for (std::size_t i = 0; i < comm.size(); ++i) {
      SCOPED_TRACE("rank " + std::to_string(r) + " op " + std::to_string(i));
      EXPECT_EQ(comm[i].name, "world.all_reduce");
      EXPECT_EQ(comm[i].bytes, kBytes);
      EXPECT_EQ(comm[i].algo, col::algo_name(want[i].algo));
      EXPECT_EQ(comm[i].dtype, want[i].dtype);
      EXPECT_DOUBLE_EQ(comm[i].t1 - comm[i].t0,
                       col::collective_time(Op::kAllReduce, want[i].algo,
                                            world.cost_profile(), kBytes));
      EXPECT_EQ(comm[i].alpha,
                col::collective_latency(Op::kAllReduce, want[i].algo,
                                        world.cost_profile(), kBytes));
    }
  }
}

// ---- broken programs ------------------------------------------------------

TEST(CostReplay, AsymmetricBytesNameGroupOpAndWaiters) {
  const std::string what =
      region_error([](sim::Cluster&, col::Backend& be, int r) {
        col::CostReplay rp(be.world(), r);
        rp.collective(be.world(), Op::kAllReduce, 1024);
        rp.collective(be.world(), Op::kAllGather, r == 3 ? 4096 : 2048);
        rp.flush();
      });
  // Which side counts as "waiting" depends on the evaluator's walk order;
  // the group, the op index and both shapes are always named.
  EXPECT_NE(what.find("group 'world' at op #1: rank "), std::string::npos)
      << what;
  EXPECT_NE(what.find("all_gather of 2048 B"), std::string::npos) << what;
  EXPECT_NE(what.find("all_gather of 4096 B"), std::string::npos) << what;
  EXPECT_NE(what.find("still waiting"), std::string::npos) << what;
}

TEST(CostReplay, MissingArrivalNamesWaitingAndAbsentRanks) {
  const std::string what =
      region_error([](sim::Cluster&, col::Backend& be, int r) {
        col::CostReplay rp(be.world(), r);
        rp.collective(be.world(), Op::kBroadcast, 512);
        if (r < 2) rp.collective(be.world(), Op::kReduce, 512);
        rp.flush();
      });
  EXPECT_NE(what.find("group 'world' at op #1 (reduce of 512 B): ranks [0, 1] "
                      "still waiting, ranks [2, 3] never arrive"),
            std::string::npos)
      << what;
}

TEST(CostReplay, ThrowingRankTimesOutPeers) {
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  col::Backend be(cluster);
  std::vector<int> timed_out(4, 0);
  EXPECT_THROW(cluster.run([&](int r) {
                 col::CostReplay rp(be.world(), r);
                 rp.compute(1e9);
                 rp.collective(be.world(), Op::kAllReduce, 1 << 20);
                 if (r == 2) throw std::runtime_error("rank 2 fails");
                 try {
                   rp.flush();
                 } catch (const sim::CommTimeoutError& e) {
                   timed_out[static_cast<std::size_t>(r)] = 1;
                   EXPECT_EQ(e.op(), "cost_replay");
                   throw;
                 }
               }),
               std::runtime_error);
  EXPECT_EQ(timed_out, (std::vector<int>{1, 1, 0, 1}));
}

TEST(CostReplay, PendingAsyncOpsAreRejected) {
  const std::string what =
      region_error([](sim::Cluster&, col::Backend& be, int r) {
        std::vector<float> buf(64, 1.0f);
        auto h = be.world().all_reduce_async(r, buf);
        col::CostReplay rp(be.world(), r);
        try {
          rp.collective(be.world(), Op::kAllReduce, 256);
        } catch (...) {
          h.wait();  // leave no deferred op pointing at buf
          throw;
        }
      });
  EXPECT_NE(what.find("async ops still pending"), std::string::npos) << what;
}

TEST(CostReplay, LiveTrafficWhileRecordsPendIsRejected) {
  const std::string what =
      region_error([](sim::Cluster&, col::Backend& be, int r) {
        col::CostReplay rp(be.world(), r);
        rp.collective(be.world(), Op::kAllReduce, 256);
        be.world().account_all_reduce(r, 256);
        rp.flush();
      });
  EXPECT_NE(what.find("live collective on group 'world'"), std::string::npos)
      << what;
}

TEST(CostReplay, GroupsOutsideTheScopeAreRejected) {
  sim::Cluster cluster(sim::Topology::uniform(4, 100e9));
  col::Backend be(cluster);
  col::Group* halves[] = {&be.create_group({0, 1}, "lo"),
                          &be.create_group({2, 3}, "hi")};
  try {
    cluster.run([&](int r) {
      col::CostReplay rp(*halves[r / 2], r);
      rp.collective(be.world(), Op::kAllReduce, 256);
      rp.flush();
    });
    ADD_FAILURE() << "no logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("group 'world' reaches rank"),
              std::string::npos)
        << e.what();
  }
}
