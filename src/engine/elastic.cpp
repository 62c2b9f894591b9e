#include "engine/elastic.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/knobs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/cluster.hpp"
#include "sim/device.hpp"
#include "sim/fault.hpp"

namespace ca::engine {

namespace {

void fault_span(sim::Device& dev, const char* name, double t0, double t1,
                std::int64_t bytes = 0) {
  if (obs::TraceBuffer* tr = dev.trace()) {
    tr->add(obs::TraceEvent{name, obs::Category::kFault, t0, t1, t0, bytes,
                            0.0, 0.0, {}, {}});
  }
}

}  // namespace

ElasticOptions ElasticOptions::resolve(const core::Config& config) {
  const core::Knobs knobs = core::Knobs::resolve(&config);
  ElasticOptions o;
  o.enabled = knobs.text(core::Knob::kElastic) == "on";
  o.min_world = static_cast<int>(knobs.integer(core::Knob::kElasticMinWorld));
  return o;
}

ElasticCoordinator::ElasticCoordinator(collective::Backend& backend,
                                       core::Config initial,
                                       ElasticOptions opts)
    : backend_(backend), opts_(std::move(opts)) {
  sim::Cluster& cluster = backend_.cluster();
  if (opts_.flops_per_sec <= 0.0) {
    opts_.flops_per_sec = cluster.device(0).gpu().flops_fp32;
  }
  if (opts_.bandwidth <= 0.0) {
    opts_.bandwidth = cluster.topology().intra_node_bandwidth();
  }
  if (!opts_.replan) {
    opts_.replan = [this](int survivors, const core::Config& prev) {
      const autop::ElasticLayout l = autop::best_survivor_layout(
          survivors, opts_.rows, opts_.hidden, opts_.max_data,
          opts_.flops_per_sec, opts_.bandwidth);
      if (!l.feasible) {
        throw std::runtime_error(
            "elastic: no feasible survivor layout for world " +
            std::to_string(survivors));
      }
      core::Config next = prev;  // keep the sim/metrics/comm knobs
      next.data_parallel_size = l.data;
      next.pipeline_parallel_size = 1;
      next.sequence_parallel_size = 1;
      next.tensor_parallel_size = l.tensor;
      next.tensor_mode = l.mode;
      next.tensor_depth = l.depth;
      next.validate();
      return next;
    };
  }
  Epoch e;
  e.config = std::move(initial);
  e.members.resize(static_cast<std::size_t>(e.config.world_size()));
  for (int r = 0; r < e.config.world_size(); ++r) {
    e.members[static_cast<std::size_t>(r)] = r;
  }
  e.ctx = std::make_unique<core::ParallelContext>(backend_, e.config,
                                                  e.members);
  epochs_.push_back(std::move(e));
  // New deaths must re-evaluate the seal predicate of a round already in
  // progress. Lock order: FaultState::abort holds the registry mutex while
  // waking, so this callback locking mu_ fixes the order registry -> mu_ —
  // which is why no coordinator path may call into the FaultState while
  // holding mu_ (see seal()).
  cluster.fault_state().register_waker(this, [this] {
    std::lock_guard<std::mutex> lk(mu_);
    ++wake_seq_;
    cv_.notify_all();
  });
}

ElasticCoordinator::~ElasticCoordinator() {
  backend_.cluster().fault_state().unregister_waker(this);
}

core::ParallelContext& ElasticCoordinator::context() {
  std::lock_guard<std::mutex> lk(mu_);
  return *epochs_.back().ctx;
}

int ElasticCoordinator::epoch() {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(epochs_.size()) - 1;
}

int ElasticCoordinator::recoveries() { return epoch(); }

void ElasticCoordinator::run(
    int grank,
    const std::function<void(core::ParallelContext&, int epoch)>& body) {
  core::ParallelContext* ctx;
  int ep;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ctx = epochs_.back().ctx.get();
    ep = static_cast<int>(epochs_.size()) - 1;
  }
  if (!ctx->is_member(grank)) return;
  for (;;) {
    try {
      body(*ctx, ep);
      return;
    } catch (const sim::CommTimeoutError&) {
      if (!opts_.enabled) throw;
      ctx = recover(grank);
      if (ctx == nullptr) return;  // dropped from the shrunk world
      std::lock_guard<std::mutex> lk(mu_);
      ep = static_cast<int>(epochs_.size()) - 1;
    }
    // DeviceFailure (this rank dying) and everything else propagate to
    // Cluster::run, which records them and aborts the region as before.
  }
}

void ElasticCoordinator::poll(int grank) {
  sim::FaultState& fs = backend_.cluster().fault_state();
  if (!fs.aborted()) return;
  throw sim::CommTimeoutError(grank, "elastic", "poll", 0, 0.0, fs.cause());
}

core::ParallelContext* ElasticCoordinator::recover(int grank) {
  sim::Cluster& cluster = backend_.cluster();
  sim::Device& dev = cluster.device(grank);
  // Make sure every other living member unblocks and joins this round even
  // when our own failure did not abort the region (e.g. a transient fault
  // that exhausted its retries without killing anyone). Idempotent past the
  // first cause; device_death=false keeps dead_ranks intact.
  cluster.fault_state().abort(
      grank, "rank " + std::to_string(grank) + ": entering elastic recovery",
      /*device_death=*/false);

  std::unique_lock<std::mutex> lk(mu_);
  const auto my_epoch = static_cast<int>(epochs_.size()) - 1;
  const double my_arrival = dev.clock();
  ++arrived_;
  ++wake_seq_;
  round_max_clock_ = std::max(round_max_clock_, my_arrival);
  if (round_min_clock_ < 0.0 || my_arrival < round_min_clock_) {
    round_min_clock_ = my_arrival;
  }
  cv_.notify_all();

  while (static_cast<int>(epochs_.size()) - 1 == my_epoch && !failed_) {
    // Refresh the dead-rank snapshot with mu_ dropped (lock order: the
    // FaultState waker takes mu_ under the registry mutex, so we must never
    // take the registry mutex under mu_).
    lk.unlock();
    std::vector<int> dead = cluster.fault_state().dead_ranks();
    lk.lock();
    if (static_cast<int>(epochs_.size()) - 1 != my_epoch || failed_) break;
    dead_ = std::move(dead);
    int living = 0;
    for (int m : epochs_.back().members) {
      if (std::find(dead_.begin(), dead_.end(), m) == dead_.end()) ++living;
    }
    if (!sealing_ && arrived_ >= living) {
      sealing_ = true;
      seal(lk, grank);  // publishes the next epoch, or rethrows on give-up
      break;
    }
    const std::uint64_t seen = wake_seq_;
    cv_.wait(lk, [&] {
      return static_cast<int>(epochs_.size()) - 1 != my_epoch || failed_ ||
             wake_seq_ != seen;
    });
  }
  if (failed_) throw;  // rethrow this survivor's own in-flight timeout

  const Epoch& e = epochs_.back();
  core::ParallelContext* ctx = e.ctx.get();
  const bool member = ctx->is_member(grank);
  const double resume = e.resume_clock;
  const double detect = e.detect_clock;
  lk.unlock();

  // Survivors restart in lockstep: align to the latest arrival so the first
  // post-recovery collective sees symmetric start times again.
  dev.set_clock(std::max(dev.clock(), resume));
  fault_span(dev, "elastic.consensus", my_arrival, dev.clock());
  if (obs::MetricsSink* mx = dev.metrics()) {
    mx->counter("elastic.recoveries").inc();
    // Detection = the watchdog budget the first survivor burned before its
    // timeout fired; the rest is consensus + rebuild in simulated time.
    mx->gauge("elastic.mttr_s")
        .set(resume - detect + cluster.fault_state().watchdog());
  }
  return member ? ctx : nullptr;
}

void ElasticCoordinator::seal(std::unique_lock<std::mutex>& lk, int grank) {
  // Snapshot everything, then drop mu_ for the FaultState / group-building
  // work (lock order, see the waker registration in the constructor). Every
  // living member is parked in recover() and the dead are dead, so the
  // leader has the Backend to itself — the single-threaded window group
  // creation needs.
  const core::Config prev_config = epochs_.back().config;
  std::vector<int> survivors;
  for (int m : epochs_.back().members) {
    if (std::find(dead_.begin(), dead_.end(), m) == dead_.end()) {
      survivors.push_back(m);
    }
  }
  std::sort(survivors.begin(), survivors.end());
  const int round = static_cast<int>(epochs_.size());  // this recovery's index
  const double detect = round_min_clock_;
  const double resume = round_max_clock_;
  lk.unlock();

  sim::Cluster& cluster = backend_.cluster();
  bool ok = static_cast<int>(survivors.size()) >= opts_.min_world &&
            round <= opts_.max_recoveries;
  core::Config next;
  if (ok) {
    try {
      next = opts_.replan(static_cast<int>(survivors.size()), prev_config);
      ok = next.world_size() >= 1 &&
           next.world_size() <= static_cast<int>(survivors.size());
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok) {
    lk.lock();
    failed_ = true;
    cv_.notify_all();
    lk.unlock();
    throw;  // the leader's own in-flight timeout; peers rethrow theirs
  }

  // From here the region is live again: collectives on the NEW groups work,
  // while everything parked on the old ones already unwound.
  cluster.fault_state().rearm();
  std::vector<int> members(survivors.begin(),
                           survivors.begin() + next.world_size());
  auto ctx =
      std::make_unique<core::ParallelContext>(backend_, next, members);
  fault_span(cluster.device(grank), "elastic.rebuild", resume, resume);

  lk.lock();
  Epoch e;
  e.config = std::move(next);
  e.members = std::move(members);
  e.ctx = std::move(ctx);
  e.detect_clock = detect;
  e.resume_clock = resume;
  epochs_.push_back(std::move(e));
  arrived_ = 0;
  round_max_clock_ = 0.0;
  round_min_clock_ = -1.0;
  sealing_ = false;
  ++wake_seq_;
  cv_.notify_all();
}

void ElasticCoordinator::store_checkpoint(std::int64_t step,
                                          std::string bytes) {
  std::lock_guard<std::mutex> lk(ckpt_mu_);
  if (step <= ckpt_step_) return;  // every member deposits identical bytes
  ckpt_step_ = step;
  ckpt_bytes_ = std::move(bytes);
}

std::pair<std::int64_t, std::string> ElasticCoordinator::latest_checkpoint()
    const {
  std::lock_guard<std::mutex> lk(ckpt_mu_);
  return {ckpt_step_, ckpt_bytes_};
}

void ElasticCoordinator::note_resharded(int grank, std::int64_t bytes) {
  sim::Device& dev = backend_.cluster().device(grank);
  fault_span(dev, "elastic.reshard", dev.clock(), dev.clock(), bytes);
  if (obs::MetricsSink* mx = dev.metrics()) {
    mx->counter("elastic.reshard_bytes").inc(bytes);
  }
}

void ElasticCoordinator::note_replayed(int grank, std::int64_t steps) {
  sim::Device& dev = backend_.cluster().device(grank);
  double resume;
  {
    std::lock_guard<std::mutex> lk(mu_);
    resume = epochs_.back().resume_clock;
  }
  fault_span(dev, "elastic.replay", resume, dev.clock());
  if (obs::MetricsSink* mx = dev.metrics()) {
    mx->gauge("elastic.replayed_steps").set(static_cast<double>(steps));
  }
}

}  // namespace ca::engine
