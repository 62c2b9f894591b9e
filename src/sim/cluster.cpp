#include "sim/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

namespace ca::sim {

Cluster::Cluster(Topology topo, core::Knobs knobs)
    : topo_(std::move(topo)),
      host_mem_("host", 512 * kGiB, -1, /*shared=*/true),
      knobs_(std::move(knobs)) {
  devices_.reserve(static_cast<std::size_t>(topo_.num_devices()));
  for (int r = 0; r < topo_.num_devices(); ++r) {
    devices_.push_back(std::make_unique<Device>(r, topo_.gpu()));
  }
  using core::Knob;
  backend_ = *parse_backend(knobs_.text(Knob::kSimBackend));
  workers_ = static_cast<int>(knobs_.integer(Knob::kSimWorkers));
  stack_bytes_ = static_cast<std::size_t>(knobs_.integer(Knob::kSimStackKb))
                 << 10;
  hist_buckets_ = static_cast<int>(knobs_.integer(Knob::kMetricsHistBuckets));
  if (knobs_.text(Knob::kMetrics) == "on") enable_metrics();
}

void Cluster::run(const std::function<void(int)>& fn) {
  const int n = world_size();
  fault_state_.reset();  // fresh SPMD region, no stale abort
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::int64_t> error_order(static_cast<std::size_t>(n), -1);
  std::atomic<std::int64_t> next_error{0};
  // One body for both backends: run the rank, and on any escape record the
  // exception in arrival order (the root cause strictly precedes the
  // survivors' watchdog timeouts it triggers), then abort the region so no
  // peer stays blocked on a rendezvous with this rank.
  const auto body = [&](int r) {
    try {
      fn(r);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      error_order[static_cast<std::size_t>(r)] =
          next_error.fetch_add(1, std::memory_order_relaxed);
      const char* what = "unknown error";
      bool death = false;
      try {
        throw;
      } catch (const DeviceFailure& e) {
        what = e.what();
        death = true;
      } catch (const std::exception& e) {
        what = e.what();
      } catch (...) {
      }
      fault_state_.abort(r, "rank " + std::to_string(r) + ": " + what, death);
    }
  };
  if (backend_ == SimBackend::kTasks) {
    // Fibers on a worker pool; the scheduler owns the ThreadClock binding
    // (task-local — it follows the fiber across workers).
    TaskScheduler::Options opts;
    opts.workers = workers_;
    opts.stack_bytes = stack_bytes_;
    TaskScheduler::run(
        n, body,
        [this](int r) {
          return devices_[static_cast<std::size_t>(r)]->clock_addr();
        },
        opts);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    const int team = omp_team_per_rank(n);
    for (int r = 0; r < n; ++r) {
      threads.emplace_back([&, r] {
        set_omp_team(team);
        // Let samplers on shared pools (host/NVMe) stamp allocations from
        // this thread with this rank's simulated clock.
        obs::ThreadClock::bind(
            devices_[static_cast<std::size_t>(r)]->clock_addr());
        body(r);
        obs::ThreadClock::bind(nullptr);
      });
    }
    for (auto& t : threads) t.join();
  }
  int first = -1;
  for (int r = 0; r < n; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (errors[i] && (first < 0 || error_order[i] <
                                       error_order[static_cast<std::size_t>(first)])) {
      first = r;
    }
  }
  if (first < 0) return;
  // Elastic recovery: when the coordinator re-armed the region mid-run, the
  // dead ranks' DeviceFailures were already absorbed — the survivors regrouped
  // and kept training. Only swallow if *every* recorded escape is a death; any
  // other exception (including a survivor's timeout that recovery failed to
  // catch) still surfaces.
  if (fault_state_.recovered()) {
    bool all_deaths = true;
    for (int r = 0; r < n && all_deaths; ++r) {
      const auto i = static_cast<std::size_t>(r);
      if (!errors[i]) continue;
      try {
        std::rethrow_exception(errors[i]);
      } catch (const DeviceFailure&) {
      } catch (...) {
        all_deaths = false;
      }
    }
    if (all_deaths) return;
  }
  std::rethrow_exception(errors[static_cast<std::size_t>(first)]);
}

FaultInjector& Cluster::install_faults(FaultPlan plan) {
  fault_state_.set_watchdog(plan.watchdog);
  injector_ = std::make_unique<FaultInjector>(std::move(plan));
  for (auto& d : devices_) d->set_fault(injector_.get());
  return *injector_;
}

double Cluster::max_clock() const {
  double m = 0.0;
  for (const auto& d : devices_) m = std::max(m, d->clock());
  return m;
}

std::int64_t Cluster::total_bytes_sent() const {
  std::int64_t total = 0;
  for (const auto& d : devices_) total += d->bytes_sent();
  return total;
}

void Cluster::reset_stats() {
  for (auto& d : devices_) {
    d->reset_clock();
    d->reset_bytes_sent();
    d->mem().reset();
  }
  host_mem_.reset();
  nvme_mem_.reset();  // offload benches measure NVMe peaks per configuration
  if (tracer_) tracer_->clear();
  if (metrics_) metrics_->clear();
}

obs::Tracer& Cluster::enable_tracing() {
  if (!tracer_) tracer_ = std::make_unique<obs::Tracer>(world_size());
  for (int r = 0; r < world_size(); ++r) {
    Device& d = *devices_[static_cast<std::size_t>(r)];
    obs::TraceBuffer* buf = &tracer_->rank(r);
    d.set_trace(buf);
    d.mem().set_sample_hook(
        [buf](std::int64_t current) { buf->mem_sample(current); });
  }
  obs::Tracer* tr = tracer_.get();
  host_mem_.set_sample_hook([tr](std::int64_t current) {
    tr->pool_sample("host", obs::ThreadClock::now(), current);
  });
  nvme_mem_.set_sample_hook([tr](std::int64_t current) {
    tr->pool_sample("nvme", obs::ThreadClock::now(), current);
  });
  return *tracer_;
}

void Cluster::disable_tracing() {
  for (auto& d : devices_) {
    d->set_trace(nullptr);
    d->mem().set_sample_hook(nullptr);
  }
  host_mem_.set_sample_hook(nullptr);
  nvme_mem_.set_sample_hook(nullptr);
}

obs::MetricsRegistry& Cluster::enable_metrics() {
  if (!metrics_) {
    metrics_ =
        std::make_unique<obs::MetricsRegistry>(world_size(), hist_buckets_);
  }
  for (int r = 0; r < world_size(); ++r) {
    devices_[static_cast<std::size_t>(r)]->set_metrics(&metrics_->rank(r));
  }
  return *metrics_;
}

void Cluster::disable_metrics() {
  for (auto& d : devices_) d->set_metrics(nullptr);
}

}  // namespace ca::sim
