#pragma once

// Host-clock spans recorded by the benchmark around its own calls into the
// libraries' public functions. One lane per simulated rank plus a harness
// lane for the main thread; each lane is written only by its owner (the
// rank's fiber or the main thread), so recording takes no lock. Spans stay
// in memory and are written once, at the end of the run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host nanoseconds since the first call in this process (steady clock).
std::int64_t host_ns();

struct Span {
  const char* name = "";
  std::int64_t t0 = 0;  ///< host ns
  std::int64_t t1 = 0;
  int parent = -1;      ///< index in the parent's lane, or -1
  int parent_lane = -1;
};

/// Per-name aggregate: durations and self times (span minus the part of its
/// interval that its child spans cover).
struct SpanStats {
  std::vector<double> dur_ms;
  double self_ms_total = 0.0;
  double dur_ms_total = 0.0;
};

class SpanLog {
 public:
  /// `ranks` rank lanes; the harness lane is kHarness.
  explicit SpanLog(int ranks);

  static constexpr int kHarness = -1;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span on one lane. Inert while the log is disabled. A rank-lane
  /// span opened with no open span on its own lane takes the innermost open
  /// harness span as its parent (the step that launched the SPMD region).
  class Scope {
   public:
    Scope(SpanLog* log, int lane, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_ = nullptr;
    int lane_ = 0;
    int index_ = -1;
  };

  [[nodiscard]] std::map<std::string, SpanStats> stats() const;
  /// Median duration (ms) of every span with this name, or -1 if none.
  [[nodiscard]] double median_ms(const std::string& name) const;
  [[nodiscard]] std::size_t count() const;

  /// Append this log's spans as Chrome trace events (`pid` separates logs of
  /// several workloads in one file). Returns the JSON fragments.
  void append_chrome_events(int pid, const std::string& label,
                            std::vector<std::string>& out) const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<int> open;  // indices of open spans, innermost last
  };
  Lane& lane(int l) { return lanes_[static_cast<std::size_t>(l + 1)]; }
  [[nodiscard]] const Lane& lane(int l) const {
    return lanes_[static_cast<std::size_t>(l + 1)];
  }
  std::vector<Lane> lanes_;  // [0] is the harness lane, [r + 1] rank r
  bool enabled_ = false;
};

/// Write the span logs of a run as one Chrome/Perfetto trace file with a
/// per-name summary (count, median, total and self ms). Returns false on an
/// I/O error.
bool write_span_file(const std::string& path,
                     const std::vector<std::pair<std::string, const SpanLog*>>& logs);

}  // namespace perfbench
