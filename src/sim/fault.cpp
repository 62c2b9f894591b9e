#include "sim/fault.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace ca::sim {

// ---- FaultPlan --------------------------------------------------------------

double FaultPlan::jitter(std::uint64_t k) const {
  // splitmix64 of (seed, k): stable across platforms, no global state.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

namespace {

using core::Knob;

/// One CA_FAULT_* spec value split at its '@' and ':' separators, which
/// must spell one alternative of the knob's table grammar ("@::" for
/// "<rank>@<from>:<duration>:<factor>"). Junk anywhere, or a negative rank
/// or step, raises the knob's structured error.
struct SpecReader {
  Knob knob;
  std::string_view whole;
  std::vector<std::string_view> parts;

  SpecReader(Knob k, std::string_view v) : knob(k), whole(v) {
    std::string seps;
    for (auto i = v.find_first_of("@:");; i = v.find_first_of("@:")) {
      parts.push_back(v.substr(0, i));
      if (i == std::string_view::npos) break;
      seps += v[i];
      v.remove_prefix(i + 1);
    }
    bool ok = false;
    std::string shape;
    for (const char c : std::string(core::knob_spec(k).allowed) + '|') {
      if (c == '@' || c == ':') shape += c;
      if (c == '|') ok = ok || std::exchange(shape, "") == seps;
    }
    if (!ok) fail();
  }
  [[noreturn]] void fail() const {
    const core::KnobSpec& s = core::knob_spec(knob);
    core::throw_bad_knob(s, s.env, whole);
  }
  /// `v` as a T; an `index` (rank or step) must also be >= 0.
  template <class T>
  T number(std::string_view v, bool index = false) const {
    const auto out = core::parse_knob_number<T>(v);
    if (!out || (index && *out < 0)) fail();
    return *out;
  }
  int rank() const { return number<int>(parts[0], true); }
  double real(std::size_t i) const { return number<double>(parts[i]); }
  std::int64_t index(std::size_t i) const {
    return number<std::int64_t>(parts[i], true);
  }
};

}  // namespace

std::optional<FaultPlan> FaultPlan::from_env(const core::Knobs& knobs) {
  bool any = false;
  for (int k = static_cast<int>(Knob::kFaultWatchdog);
       k <= static_cast<int>(Knob::kFaultCkptCorrupt); ++k) {
    any = any || knobs.source(static_cast<Knob>(k)) == core::KnobSource::kEnv;
  }
  if (!any) return std::nullopt;
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(knobs.integer(Knob::kFaultSeed));
  plan.watchdog = knobs.real(Knob::kFaultWatchdog);
  plan.retry_base = knobs.real(Knob::kFaultRetryBase);
  plan.max_retries = static_cast<int>(knobs.integer(Knob::kFaultRetries));
  const auto spec = [&](Knob k) {
    const std::string& v = knobs.text(k);
    return v.empty() ? std::nullopt : std::optional<SpecReader>({k, v});
  };
  if (const auto r = spec(Knob::kFaultFailstop)) {
    if (r->parts[1].starts_with('t')) {
      plan.fail_stop_at(r->rank(), r->number<double>(r->parts[1].substr(1)));
    } else {
      plan.fail_stop(r->rank(), r->index(1));
    }
  }
  if (const auto r = spec(Knob::kFaultStraggler)) {
    plan.straggler(r->rank(), r->real(1), r->real(2), r->real(3));
  }
  if (const auto r = spec(Knob::kFaultLink)) {
    plan.degrade_links(r->real(0), r->real(1), r->real(2));
  }
  if (const auto r = spec(Knob::kFaultNan)) {
    plan.corrupt_grads(r->rank(), r->index(1));
  }
  if (const auto r = spec(Knob::kFaultTransient)) {
    plan.transient_comm(r->real(0), r->real(1));
  }
  if (const auto r = spec(Knob::kFaultCkptCorrupt)) {
    // A negative offset asks for a seeded one, as when it is left out.
    const bool offset = r->parts.size() == 2;
    plan.corrupt_checkpoint(
        r->index(0), offset ? r->number<std::int64_t>(r->parts[1]) : -1);
  }
  return plan;
}

// ---- FaultInjector ----------------------------------------------------------

void FaultInjector::on_step(int rank, std::int64_t step, double clock) const {
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kFailStop && s.rank == rank && s.step >= 0 &&
        s.step == step) {
      throw DeviceFailure(rank, step, clock);
    }
  }
}

void FaultInjector::check_alive(int rank, double clock) const {
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kFailStop && s.rank == rank && s.at >= 0.0 &&
        clock >= s.at) {
      throw DeviceFailure(rank, -1, clock);
    }
  }
}

double FaultInjector::compute_slowdown(int rank, double t) const {
  double factor = 1.0;
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kStraggler && s.rank == rank && t >= s.at &&
        t < s.at + s.duration) {
      factor = std::max(factor, s.factor);
    }
  }
  return factor;
}

double FaultInjector::link_slowdown(double t) const {
  double factor = 1.0;
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kLinkDegrade && t >= s.at &&
        t < s.at + s.duration) {
      factor = std::max(factor, s.factor);
    }
  }
  return factor;
}

bool FaultInjector::corrupt_grads(int rank, std::int64_t step) const {
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kGradCorrupt && s.rank == rank &&
        s.step == step) {
      return true;
    }
  }
  return false;
}

FaultInjector::RetryResult FaultInjector::transient_delay(double t) const {
  RetryResult r;
  std::size_t si = 0;
  for (const FaultSpec& s : plan_.specs) {
    const std::size_t spec_index = si++;
    if (s.kind != FaultKind::kTransientComm) continue;
    // Decorrelated-jitter backoff (seeded): the first retry waits exactly
    // retry_base; retry k then draws d_k uniform in [retry_base, 3*d_{k-1})
    // from the plan's splitmix64 stream, capped at retry_base*2^max_retries.
    // Pure exponential backoff kept every concurrent collective in lockstep,
    // so retry storms re-collided on the degraded link; jittering spreads
    // them out. The draw is keyed on (start time, spec, attempt) only —
    // every member of one collective passes the same symmetric start time,
    // so all members still agree on the delays (or on giving up) without
    // extra communication, and the whole schedule is reproducible from
    // CA_FAULT_SEED.
    const std::uint64_t key = std::bit_cast<std::uint64_t>(t) ^
                              0x517cc1b727220a95ULL * (spec_index + 1);
    const double cap = plan_.retry_base *
                       static_cast<double>(std::int64_t{1} << plan_.max_retries);
    double now = t;
    double prev = plan_.retry_base;
    while (now >= s.at && now < s.at + s.duration) {
      if (r.retries >= plan_.max_retries) {
        r.gave_up = true;
        return r;
      }
      double backoff = plan_.retry_base;
      if (r.retries > 0) {
        const double u =
            plan_.jitter(key + static_cast<std::uint64_t>(r.retries));
        backoff = plan_.retry_base + u * (3.0 * prev - plan_.retry_base);
        backoff = std::min(backoff, cap);
      }
      prev = backoff;
      now += backoff;
      r.delay += backoff;
      ++r.retries;
    }
  }
  return r;
}

bool FaultInjector::corrupt_checkpoint(std::int64_t step,
                                       std::int64_t* offset) const {
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kCkptCorrupt && s.step == step) {
      if (offset != nullptr) *offset = static_cast<std::int64_t>(s.at);
      return true;
    }
  }
  return false;
}

// ---- FaultState -------------------------------------------------------------

void FaultState::abort(int rank, const std::string& cause, bool device_death) {
  std::lock_guard<std::mutex> lk(mu_);
  if (cause_.empty()) cause_ = cause;
  if (device_death) dead_ranks_.push_back(rank);
  aborted_.store(true, std::memory_order_release);
  // Wake while holding the registry lock: unregister_waker (taken by owner
  // destructors) then cannot return while a wake is mid-call, so a waker
  // never outlives its barrier/channel. Acyclic lock order: wakers only lock
  // their own mutex and notify, and no path locks this registry while
  // holding a waker's mutex (waiter predicates read only the atomic flag).
  for (auto& [key, wake] : wakers_) wake();
}

std::string FaultState::cause() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cause_;
}

std::vector<int> FaultState::dead_ranks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dead_ranks_;
}

void FaultState::register_waker(const void* key, std::function<void()> wake) {
  std::lock_guard<std::mutex> lk(mu_);
  wakers_.emplace_back(key, std::move(wake));
}

void FaultState::unregister_waker(const void* key) {
  std::lock_guard<std::mutex> lk(mu_);
  std::erase_if(wakers_, [key](const auto& w) { return w.first == key; });
}

void FaultState::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  aborted_.store(false, std::memory_order_release);
  recovered_.store(false, std::memory_order_release);
  cause_.clear();
  dead_ranks_.clear();
}

void FaultState::rearm() {
  std::lock_guard<std::mutex> lk(mu_);
  aborted_.store(false, std::memory_order_release);
  recovered_.store(true, std::memory_order_release);
  cause_.clear();
  // dead_ranks_ intentionally kept: the survivor consensus for any later
  // failure in this region must still exclude everyone who already died.
}

}  // namespace ca::sim
