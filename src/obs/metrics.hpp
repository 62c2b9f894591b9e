#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ca::obs {

/// Default log2-bucket count of a Histogram (CA_METRICS_HIST_BUCKETS / the
/// `metrics.hist_buckets` config key override it registry-wide).
inline constexpr int kDefaultHistBuckets = 64;

/// Monotonic event count. Plain int64 — each sink is written by exactly one
/// SPMD thread (its rank's), so no atomics are needed on the hot path.
struct Counter {
  std::int64_t value = 0;
  void inc(std::int64_t n = 1) { value += n; }
};

/// Last-write-wins instantaneous value.
struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
};

/// Log-bucketed distribution with exact count/sum/min/max. Bucket i counts
/// values in [2^(i-kHistExpOffset), 2^(i+1-kHistExpOffset)), clamped at both
/// ends, so simulated durations from picoseconds to hours land in distinct
/// buckets while the exact moments stay lossless.
inline constexpr int kHistExpOffset = 40;

class Histogram {
 public:
  explicit Histogram(int buckets = kDefaultHistBuckets)
      : buckets_(static_cast<std::size_t>(buckets), 0) {}

  void record(double v) {
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
    ++buckets_[static_cast<std::size_t>(bucket_of(v))];
  }

  [[nodiscard]] int bucket_of(double v) const {
    if (!(v > 0.0)) return 0;  // zero/negative/NaN all clamp low
    const int idx = std::ilogb(v) + kHistExpOffset;
    if (idx < 0) return 0;
    const int top = static_cast<int>(buckets_.size()) - 1;
    return idx > top ? top : idx;
  }
  /// Exclusive upper edge of bucket i (the Prometheus `le` label).
  [[nodiscard]] static double bucket_upper(int i) {
    return std::ldexp(1.0, i + 1 - kHistExpOffset);
  }

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] const std::vector<std::int64_t>& buckets() const {
    return buckets_;
  }

  /// Fold another histogram in (report-time cross-rank merge). Bucket counts
  /// align by index; mismatched widths merge over the shorter prefix with the
  /// overflow clamped into the last bucket, so a registry always merges its
  /// own uniformly-sized sinks exactly.
  void merge(const Histogram& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ > 0) {
      if (other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
    const std::size_t n = buckets_.size();
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
      buckets_[i < n ? i : n - 1] += other.buckets_[i];
    }
  }

  void clear() {
    count_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
    for (auto& b : buckets_) b = 0;
  }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<std::int64_t> buckets_;
};

/// One sample of a per-step series: the step index, the rank's simulated
/// clock when it was recorded, and the value.
struct SeriesPoint {
  std::int64_t step = 0;
  double t = 0.0;
  double value = 0.0;
};

/// Append-only per-step samples (step time, exposed sync wait, ...) — the
/// input of the straggler detector and the Chrome-trace counter tracks.
struct Series {
  std::vector<SeriesPoint> points;
  void record(std::int64_t step, double t, double value) {
    points.push_back({step, t, value});
  }
  void clear() { points.clear(); }
};

/// Identity of one collective shape on the comm plane. Exact bytes (not a
/// bytes class) so the calibration fit gets one point per message size; the
/// Prometheus exporter coarsens to power-of-2 classes at dump time.
struct CommKey {
  std::string group;
  std::string op;
  std::string algo;
  std::string dtype;
  std::int64_t bytes = 0;
  auto operator<=>(const CommKey&) const = default;
};

/// Aggregate over every settled collective with one CommKey: the measured
/// span time (after fault slowdowns) next to the pure cost-model prediction,
/// which is exactly the join the calibration report runs on.
struct CommStat {
  std::int64_t count = 0;
  double sum_s = 0.0;
  double min_s = std::numeric_limits<double>::infinity();
  double max_s = 0.0;
  double sum_pred_s = 0.0;

  void observe(double measured_s, double predicted_s) {
    ++count;
    sum_s += measured_s;
    if (measured_s < min_s) min_s = measured_s;
    if (measured_s > max_s) max_s = measured_s;
    sum_pred_s += predicted_s;
  }
  void merge(const CommStat& o) {
    count += o.count;
    sum_s += o.sum_s;
    if (o.min_s < min_s) min_s = o.min_s;
    if (o.max_s > max_s) max_s = o.max_s;
    sum_pred_s += o.sum_pred_s;
  }
  [[nodiscard]] double mean_s() const {
    return count > 0 ? sum_s / static_cast<double>(count) : 0.0;
  }
  [[nodiscard]] double mean_pred_s() const {
    return count > 0 ? sum_pred_s / static_cast<double>(count) : 0.0;
  }
};

/// Per-rank metric store. Owned by the MetricsRegistry; one writer at a time
/// touches a given sink (its own rank, or a cost-replay flush's evaluator
/// while that rank is parked), so the hot path takes no lock — the same
/// single-writer contract as TraceBuffer. Instruments are
/// looked up by name in node-based maps, so the reference an emit point
/// caches stays valid for the sink's lifetime (clear() zeroes values in
/// place, it never erases nodes).
class MetricsSink {
 public:
  explicit MetricsSink(int hist_buckets = kDefaultHistBuckets)
      : hist_buckets_(hist_buckets) {}

  /// Bind the simulated clock series points are stamped from. The pointee
  /// must outlive the sink (the Cluster owns both).
  void bind_clock(const double* clock) { clock_ = clock; }
  [[nodiscard]] double now() const {
    return clock_ != nullptr ? *clock_ : 0.0;
  }

  [[nodiscard]] Counter& counter(std::string_view name) {
    return get(counters_, name);
  }
  [[nodiscard]] Gauge& gauge(std::string_view name) {
    return get(gauges_, name);
  }
  [[nodiscard]] Histogram& hist(std::string_view name) {
    auto it = hists_.find(name);
    if (it == hists_.end()) {
      it = hists_.emplace(std::string(name), Histogram(hist_buckets_)).first;
    }
    return it->second;
  }
  [[nodiscard]] Series& series(std::string_view name) {
    return get(series_, name);
  }
  void record_series(std::string_view name, std::int64_t step, double value) {
    series(name).record(step, now(), value);
  }

  /// The comm-plane emit point (called once per settled collective).
  /// `measured_s` is the span's settled duration (fault slowdowns included),
  /// `predicted_s` the pure cost-model time for the same call.
  void observe_comm(const std::string& group, const char* op, const char* algo,
                    const char* dtype, std::int64_t bytes, double measured_s,
                    double predicted_s) {
    comm_[CommKey{group, op, algo, dtype, bytes}].observe(measured_s,
                                                          predicted_s);
  }

  using CounterMap = std::map<std::string, Counter, std::less<>>;
  using GaugeMap = std::map<std::string, Gauge, std::less<>>;
  using HistMap = std::map<std::string, Histogram, std::less<>>;
  using SeriesMap = std::map<std::string, Series, std::less<>>;
  using CommMap = std::map<CommKey, CommStat>;

  [[nodiscard]] const CounterMap& counters() const { return counters_; }
  [[nodiscard]] const GaugeMap& gauges() const { return gauges_; }
  [[nodiscard]] const HistMap& hists() const { return hists_; }
  [[nodiscard]] const SeriesMap& all_series() const { return series_; }
  [[nodiscard]] const CommMap& comm() const { return comm_; }

  /// Zero every instrument in place. Nodes (and hence cached references)
  /// survive — a new measurement window, not a teardown.
  void clear() {
    for (auto& [k, v] : counters_) v.value = 0;
    for (auto& [k, v] : gauges_) v.value = 0.0;
    for (auto& [k, v] : hists_) v.clear();
    for (auto& [k, v] : series_) v.clear();
    comm_.clear();
  }

 private:
  template <class Map>
  [[nodiscard]] typename Map::mapped_type& get(Map& m, std::string_view name) {
    auto it = m.find(name);
    if (it == m.end()) {
      it = m.emplace(std::string(name), typename Map::mapped_type{}).first;
    }
    return it->second;
  }

  const double* clock_ = nullptr;
  int hist_buckets_ = kDefaultHistBuckets;
  CounterMap counters_;
  GaugeMap gauges_;
  HistMap hists_;
  SeriesMap series_;
  CommMap comm_;
};

/// The per-cluster metric store: one lock-free MetricsSink per rank, merged
/// into whole-run views at report time. Created by Cluster::enable_metrics();
/// emit points reach their rank's sink through Device::metrics(), which is
/// nullptr while metrics are off — the entire disabled-path cost is that one
/// predictable branch, mirroring the tracer contract.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int world, int hist_buckets = kDefaultHistBuckets)
      : hist_buckets_(hist_buckets) {
    sinks_.reserve(static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r) sinks_.emplace_back(hist_buckets);
  }

  [[nodiscard]] int world() const { return static_cast<int>(sinks_.size()); }
  [[nodiscard]] int hist_buckets() const { return hist_buckets_; }
  [[nodiscard]] MetricsSink& rank(int r) {
    return sinks_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] const MetricsSink& rank(int r) const {
    return sinks_[static_cast<std::size_t>(r)];
  }

  /// Drop all recorded values (new measurement window). Call outside the
  /// SPMD region.
  void clear() {
    for (auto& s : sinks_) s.clear();
  }

  // ---- report-time merged views (call outside the SPMD region) --------------

  [[nodiscard]] std::map<std::string, std::int64_t> merged_counters() const;
  [[nodiscard]] std::map<std::string, Histogram> merged_hists() const;
  [[nodiscard]] std::map<CommKey, CommStat> merged_comm() const;

 private:
  int hist_buckets_;
  std::vector<MetricsSink> sinks_;
};

// ---- calibration report ------------------------------------------------------
//
// Joins every settled collective's measured time against the cost-model
// prediction recorded at the same emit point, then fits t = alpha + beta *
// bytes per (group, op, algo) across message sizes. `rel_err_model` is the
// measured-vs-predicted consistency error — ~0 on a clean run (the simulator
// charges exactly the model), nonzero under link-degrade faults — and is the
// gated cost-model error. The fitted alpha/beta and `rel_err_fit` quantify
// how linear the model actually is (ring's pipelined chunk count makes it
// piecewise), the input format for measured selector auto-tuning.

struct CalibrationRow {
  std::string group;
  std::string op;
  std::string algo;
  std::string dtype;
  int points = 0;             ///< distinct message sizes observed
  std::int64_t min_bytes = 0;
  std::int64_t max_bytes = 0;
  double alpha_s = 0.0;       ///< fitted latency term (seconds)
  double beta_s_per_b = 0.0;  ///< fitted inverse bandwidth (seconds/byte)
  /// max over points of |measured - predicted| / predicted.
  double max_rel_err_model = 0.0;
  /// Same, restricted to points with bytes >= 1 MiB (the gated figure).
  double max_rel_err_model_1mib = 0.0;
  /// max over points of |measured - fit| / measured (informational).
  double max_rel_err_fit = 0.0;
};

[[nodiscard]] std::vector<CalibrationRow> calibrate(
    const MetricsRegistry& registry);

/// Write calibration rows as JSON (one object per row, under the topology
/// name). Returns false (with a warning) on I/O failure.
bool write_calibration_json(const std::vector<CalibrationRow>& rows,
                            const std::string& topology,
                            const std::string& path);

// ---- straggler / imbalance detection -----------------------------------------

struct StragglerConfig {
  /// Flag a rank when its leave-one-out z-score exceeds this.
  double z_threshold = 4.0;
  /// The peer standard deviation is floored at rel_floor * |peer mean| so a
  /// perfectly uniform clean run (stddev 0) never divides by zero and small
  /// jitter never alarms.
  double rel_floor = 0.05;
  /// Absolute stddev floor (seconds) for near-zero-mean series.
  double abs_floor = 1e-12;
};

struct StragglerEvent {
  std::string series;
  std::int64_t step = 0;
  int rank = 0;
  double value = 0.0;  ///< the flagged rank's sample
  double peer_mean = 0.0;
  double z = 0.0;
};

/// Scan one per-step series across ranks and flag every (step, rank) whose
/// value sits more than z_threshold floored-stddevs above its peers' mean
/// (leave-one-out, so one heavy outlier cannot dilute its own score).
[[nodiscard]] std::vector<StragglerEvent> detect_stragglers(
    const MetricsRegistry& registry, const std::string& series,
    StragglerConfig cfg = {});

// ---- exporters ---------------------------------------------------------------

/// Prometheus text exposition: merged counters/gauges as ca_* samples,
/// histograms as *_bucket{le=}/_sum/_count families, comm stats as labeled
/// (group, op, algo, dtype, bytes_class) counters. Returns false (with a
/// warning) on I/O failure.
bool write_prometheus(const MetricsRegistry& registry, const std::string& path);

}  // namespace ca::obs
